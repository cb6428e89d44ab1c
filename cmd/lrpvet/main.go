// Command lrpvet checks the repository for unannotated iteration over Go
// maps in production code. Go randomizes map iteration order, so a map
// `range` that feeds any deterministic artifact — trace output, crash
// images, the NVM event log, JSON reports — is a reproducibility bug
// that golden tests only catch by luck. The simulator's hot state
// therefore lives in ordered flat tables (internal/flat), and the few
// legitimate map walks left must say why they are safe:
//
//	// maprange:ok — aggregation is order-independent
//	for k, v := range m { ... }
//
// The annotation goes on the range line or the line above it. Any map
// range without one fails the check (CI runs `go run ./cmd/lrpvet`).
//
// Detection is type-aware: each package's non-test files are
// type-checked with go/types (imports resolved from source), and a range
// is flagged when its operand's underlying type is a map — whichever
// file, package or module declared it.
package main

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

const marker = "maprange:ok"

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	bad, err := vet(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lrpvet: %v\n", err)
		os.Exit(2)
	}
	if len(bad) > 0 {
		for _, s := range bad {
			fmt.Println(s)
		}
		fmt.Fprintf(os.Stderr, "lrpvet: %d unannotated map range(s); map iteration order is randomized — use an ordered flat table, sort the keys, or annotate the line with `// %s — <why order cannot matter>`\n", len(bad), marker)
		os.Exit(1)
	}
}

// vet type-checks every package directory under root (skipping .git,
// testdata and vendor trees, and _test.go files) and returns one finding
// per unannotated map range.
func vet(root string) ([]string, error) {
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	var bad []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); name == ".git" || name == "testdata" || name == "vendor" {
			return filepath.SkipDir
		}
		matches, err := filepath.Glob(filepath.Join(path, "*.go"))
		if err != nil {
			return err
		}
		var srcs []string
		for _, m := range matches {
			if !strings.HasSuffix(m, "_test.go") {
				srcs = append(srcs, m)
			}
		}
		if len(srcs) == 0 {
			return nil
		}
		sites, err := checkPackage(fset, imp, srcs)
		bad = append(bad, sites...)
		return err
	})
	return bad, err
}

// checkPackage type-checks one directory's files as a package and
// reports its unannotated ranges over map-typed operands.
func checkPackage(fset *token.FileSet, imp types.Importer, paths []string) ([]string, error) {
	var files []*ast.File
	for _, path := range paths {
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
	conf := types.Config{Importer: imp}
	if _, err := conf.Check(files[0].Name.Name, fset, files, info); err != nil {
		return nil, err
	}
	var bad []string
	for _, f := range files {
		// Lines carrying an annotation (trailing or on their own).
		annotated := map[int]bool{}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.Contains(c.Text, marker) {
					annotated[fset.Position(c.Pos()).Line] = true
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if _, isMap := info.TypeOf(rs.X).Underlying().(*types.Map); !isMap {
				return true
			}
			pos := fset.Position(rs.Pos())
			if annotated[pos.Line] || annotated[pos.Line-1] {
				return true
			}
			bad = append(bad, fmt.Sprintf("%s:%d: range over map %s without a %s annotation",
				pos.Filename, pos.Line, types.ExprString(rs.X), marker))
			return true
		})
	}
	return bad, nil
}
