package ncexplorer

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unusedAllowlist names the declarations TestUnusedCode may not report,
// one per line: "<import path>.<name> <kind>: <why>", the kind one of
// allowReasons: something outside the module calls it through an
// interface, a test compares the code under test against it, or tests
// in other packages use it (a _test.go helper cannot be imported).
const unusedAllowlist = "scripts/unused_allowlist.txt"

var allowReasons = []string{"interface:", "reference:", "helper:"}

// unusedRegion is one top-level declaration, or one spec of a grouped
// type, var or const declaration.
type unusedRegion struct {
	pkg  string          // import path of the declaring package
	uses map[string]bool // identifiers it spells, its own name excluded
	// key ("<import path>.<name>", a method as "(*T).M"), name and pos
	// describe the candidate it declares; key is empty when none.
	key, name string
	pos       token.Position
}

// TestUnusedCode fails on any function, method or type that no non-test
// code uses. Candidates are the exported functions, methods and types of
// the root package and of internal/..., and every unexported function
// and method of the module. A candidate is used when its name appears
// as an identifier in another live declaration: the root package, cmd/,
// examples/, internal/ and the bench/ module all count as callers; test
// files do not. The check iterates to a fixed point, so code used only
// by dead code is reported too. A name shared with a live declaration
// hides a dead one; it never makes live code look dead.
func TestUnusedCode(t *testing.T) {
	regions, err := parseUnusedRegions(".")
	if err != nil {
		t.Fatal(err)
	}
	allow, err := readUnusedAllowlist(unusedAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	var findings []string
	for _, r := range findUnused(regions, allow) {
		if allow[r.key] {
			delete(allow, r.key)
			continue
		}
		findings = append(findings, fmt.Sprintf("%s: %s has no non-test use", r.pos, r.key))
	}
	for key := range allow {
		findings = append(findings, fmt.Sprintf("%s: %s is used or gone; delete its line", unusedAllowlist, key))
	}
	sort.Strings(findings)
	for _, f := range findings {
		t.Error(f)
	}
}

// parseUnusedRegions parses every non-test .go file under root, skipping
// dot-directories and testdata, and splits each file into regions.
func parseUnusedRegions(root string) ([]*unusedRegion, error) {
	fset := token.NewFileSet()
	var regions []*unusedRegion
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			if err == nil && path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return err
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		pkg := "ncexplorer"
		if dir != "." {
			pkg += "/" + dir
		}
		// bench/ is its own module: it only calls into this one.
		inModule := !strings.HasPrefix(dir, "bench")
		exported := dir == "." || strings.HasPrefix(dir, "internal/")
		add := func(node ast.Node, name *ast.Ident, key string) {
			r := &unusedRegion{pkg: pkg, uses: make(map[string]bool)}
			ast.Inspect(node, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id != name {
					r.uses[id.Name] = true
				}
				return true
			})
			if name != nil && inModule && name.Name != "_" && (exported || !name.IsExported()) {
				r.key, r.name, r.pos = pkg+"."+key, name.Name, fset.Position(name.Pos())
			}
			regions = append(regions, r)
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				switch {
				case decl.Recv != nil:
					add(decl, decl.Name, receiverName(decl.Recv.List[0].Type)+"."+decl.Name.Name)
				case decl.Name.Name == "init" || decl.Name.Name == "main":
					add(decl, nil, "")
				default:
					add(decl, decl.Name, decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok && ts.Name.IsExported() {
						add(ts, ts.Name, ts.Name.Name)
					} else {
						add(spec, nil, "")
					}
				}
			}
		}
		return nil
	})
	return regions, err
}

// receiverName spells a method's receiver as "T" or "(*T)".
func receiverName(expr ast.Expr) string {
	star, ptr := expr.(*ast.StarExpr)
	if ptr {
		expr = star.X
	}
	switch e := expr.(type) {
	case *ast.IndexExpr: // a generic receiver, T[P]
		expr = e.X
	case *ast.IndexListExpr:
		expr = e.X
	}
	name := expr.(*ast.Ident).Name
	if ptr {
		return "(*" + name + ")"
	}
	return name
}

// findUnused returns the candidates no live region uses, iterating until
// no more die: a region is live unless it declares a dead candidate. A
// candidate in keep is returned when unused but never dies, so what it
// uses stays live.
func findUnused(regions []*unusedRegion, keep map[string]bool) []*unusedRegion {
	dead := make(map[*unusedRegion]bool)
	var unused []*unusedRegion
	for changed := true; changed; {
		changed, unused = false, unused[:0]
		global := make(map[string]int)
		local := make(map[string]int) // keyed by "<package>.<name>"
		for _, r := range regions {
			if !dead[r] {
				for name := range r.uses {
					global[name]++
					local[r.pkg+"."+name]++
				}
			}
		}
		for _, r := range regions {
			if r.key == "" || dead[r] {
				continue
			}
			uses := global[r.name]
			if !token.IsExported(r.name) {
				uses = local[r.pkg+"."+r.name]
			}
			// A declaration's own body keeps nothing it declares alive:
			// recursion is not a caller.
			if r.uses[r.name] {
				uses--
			}
			switch {
			case uses > 0:
			case keep[r.key]:
				unused = append(unused, r)
			default:
				dead[r], changed = true, true
			}
		}
	}
	for r := range dead {
		unused = append(unused, r)
	}
	sort.Slice(unused, func(i, j int) bool { return unused[i].key < unused[j].key })
	return unused
}

// readUnusedAllowlist reads the allowlist's keys, rejecting a repeated
// key and a line whose reason does not start with one of allowReasons.
func readUnusedAllowlist(path string) (map[string]bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow := make(map[string]bool)
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, reason, _ := strings.Cut(line, " ")
		ok := false
		for _, kind := range allowReasons {
			ok = ok || strings.HasPrefix(reason, kind+" ")
		}
		if !ok || allow[key] {
			return nil, fmt.Errorf("%s:%d: %s: want one line per key, its reason starting with one of %v", path, n, key, allowReasons)
		}
		allow[key] = true
	}
	return allow, sc.Err()
}
