package reach

// Seams for the external test package (evict_test.go), which must live
// outside package reach to import rw without a cycle.

// SetBudget overrides the byte budget to force eviction.
func (ix *Index) SetBudget(bytes int64) { ix.budget = bytes }

// RandomGraph is reach_test.go's random-graph builder.
var RandomGraph = randomGraph
