module ncexplorer/bench

go 1.22

require ncexplorer v0.0.0

replace ncexplorer => ../
