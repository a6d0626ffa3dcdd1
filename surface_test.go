package micco_test

import (
	"bufio"
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/api.golden from the package's exported identifiers")

// exportedNames lists, sorted, the exported top-level identifiers of the
// package's non-test files: functions, types, constants and variables.
func exportedNames(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					names = append(names, d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							names = append(names, s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								names = append(names, n.Name)
							}
						}
					}
				}
			}
		}
	}
	slices.Sort(names)
	return names
}

// TestAPISurface pins package micco's exported identifiers to
// testdata/api.golden, so every change to the public surface shows up as a
// reviewed diff (regenerate with go test -run TestAPISurface -update). It
// also fails when a micco.X token in README.md, cmd/ or examples/ names an
// identifier the package does not export, or a ./cmd/<dir> or
// ./examples/<dir> path there names a directory that does not exist.
func TestAPISurface(t *testing.T) {
	names := exportedNames(t)
	golden := filepath.Join("testdata", "api.golden")
	got := strings.Join(names, "\n") + "\n"
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Fields(string(raw))
	for _, n := range names {
		if !slices.Contains(want, n) {
			t.Errorf("micco.%s is exported but not in %s (review, then rerun with -update)", n, golden)
		}
	}
	for _, n := range want {
		if !slices.Contains(names, n) {
			t.Errorf("micco.%s is in %s but no longer exported (review, then rerun with -update)", n, golden)
		}
	}

	ref := regexp.MustCompile(`\bmicco\.([A-Z][A-Za-z0-9_]*)`)
	dir := regexp.MustCompile(`\./(?:cmd|examples)/[A-Za-z0-9_-]+`)
	check := func(path string) {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			for _, m := range ref.FindAllStringSubmatch(sc.Text(), -1) {
				if !slices.Contains(names, m[1]) {
					t.Errorf("%s:%d: micco.%s names no exported identifier", path, line, m[1])
				}
			}
			for _, d := range dir.FindAllString(sc.Text(), -1) {
				if fi, err := os.Stat(d); err != nil || !fi.IsDir() {
					t.Errorf("%s:%d: %s names no directory", path, line, d)
				}
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
	check("README.md")
	for _, root := range []string{"cmd", "examples"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
				check(path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
