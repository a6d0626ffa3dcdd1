package main

import (
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"strings"
	"testing"
)

// The originals: each f function is one row's source, and its g twin is
// what schema writes for it, mutant numbers and all (TestGuardedForms
// checks the text), compiled here so that the forms can be run.

func fLSS(a, b int) bool { return a < b }

func fLEQ(a, b int) bool { return a <= b }

func fGTR(a, b float64) bool { return a > b }

func fGEQ(a, b string) bool { return a >= b }

func fEQL(a, b *int) bool { return a == b }

func fNEQ(err error) bool { return err != nil }

func fNegate(c bool) bool {
	if c {
		return false
	}
	return true
}

func fADD(a, b uint8) uint8 { return a + b }

func fSUB(a, b float64) float64 { return a - b }

func fAddAssign(a, b int) int {
	a += b
	return a
}

func fSubAssign(a, b int) int {
	a -= b
	return a
}

func fInc(a int) int {
	a++
	return a
}

func fDec(a int) int {
	a--
	return a
}

func fLiteral(a int) int { return a * 10 }

func fDelete(a, b int) int {
	a = b
	return a
}

func fConst() float64 { return 7 / 2 }

func fNested(a, b int) (r bool) {
	if a < b {
		r = true
	}
	return
}

func gLSS(a, b int) bool { return schemaLSS[int](1, a, b) }

func gLEQ(a, b int) bool { return schemaLEQ[int](2, a, b) }

func gGTR(a, b float64) bool { return schemaGTR[float64](3, a, b) }

func gGEQ(a, b string) bool { return schemaGEQ[string](4, a, b) }

func gEQL(a, b *int) bool { return (schemaOn(5) != (a == b)) }

func gNEQ(err error) bool { return (schemaOn(6) != (err != nil)) }

func gNegate(c bool) bool {
	if !schemaOn(7) {
		if schemaOn(8) != (c) {
			return false
		}
	}
	return true
}

func gADD(a, b uint8) uint8 { return schemaADD[uint8](9, a, b) }

func gSUB(a, b float64) float64 { return schemaSUB[float64](10, a, b) }

func gAddAssign(a, b int) int {
	if !schemaOn(11) {
		if schemaOn(12) {
			a -= b
		} else {
			a += b
		}
	}
	return a
}

func gSubAssign(a, b int) int {
	if !schemaOn(13) {
		if schemaOn(14) {
			a += b
		} else {
			a -= b
		}
	}
	return a
}

func gInc(a int) int {
	if !schemaOn(15) {
		if schemaOn(16) {
			a--
		} else {
			a++
		}
	}
	return a
}

func gDec(a int) int {
	if !schemaOn(17) {
		if schemaOn(18) {
			a++
		} else {
			a--
		}
	}
	return a
}

func gLiteral(a int) int { return a * schemaPick[int](19, schemaPick[int](20, 10, (10-1)), (10+1)) }

func gDelete(a, b int) int {
	if !schemaOn(21) {
		a = b
	}
	return a
}

func gConst() float64 {
	return schemaPick[float64](22, schemaPick[float64](23, schemaPick[float64](24, schemaPick[float64](25, 7/2, 7/(2-1)), 7/(2+1)), (7-1)/2), (7+1)/2)
}

func gNested(a, b int) (r bool) {
	if !schemaOn(26) {
		if schemaOn(27) != (schemaLSS[int](28, a, b)) {
			if !schemaOn(29) {
				r = true
			}
		}
	}
	return
}

// stub is an importer of the two packages guard.go imports, with the one
// function it calls from each, so the forms type-check in process.
type stub struct{}

func (stub) Import(path string) (*types.Package, error) {
	p := types.NewPackage(path, path)
	v := func(t types.Type) *types.Var { return types.NewParam(token.NoPos, p, "", t) }
	str := types.Typ[types.String]
	sig := types.NewSignatureType(nil, nil, nil, types.NewTuple(v(str)), types.NewTuple(v(str)), false) // os.Getenv
	name := "Getenv"
	if path == "strconv" {
		name, sig = "Atoi", types.NewSignatureType(nil, nil, nil, types.NewTuple(v(str)),
			types.NewTuple(v(types.Typ[types.Int]), v(types.Universe.Lookup("error").Type())), false)
	}
	p.Scope().Insert(types.NewFunc(token.NoPos, p, name, sig))
	p.MarkComplete()
	return p, nil
}

// loadForms is this file's f functions as package p, and their mutants.
func loadForms(t *testing.T) (*pkg, []mutant) {
	t.Helper()
	self, err := os.ReadFile("forms_test.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "forms_test.go", self, 0)
	if err != nil {
		t.Fatal(err)
	}
	src := []byte("package p\n")
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "f") {
			src = append(append(src, '\n'), self[fset.Position(fd.Pos()).Offset:fset.Position(fd.End()).Offset]...)
			src = append(src, '\n')
		}
	}
	p := &pkg{path: "p", name: "p", goVersion: "go1.22", fset: token.NewFileSet(), names: []string{"p.go"},
		srcs: map[string][]byte{"p.go": src}, files: map[string]*ast.File{}, imp: stub{}}
	if p.files["p.go"], err = parser.ParseFile(p.fset, "p.go", src, 0); err != nil {
		t.Fatal(err)
	}
	ms, err := enumerate(token.NewFileSet(), "p.go", src)
	if err != nil {
		t.Fatal(err)
	}
	return p, ms
}

// namedFuncs is src's functions named with prefix, by name less it, as gofmt
// prints them with the prefix "g".
func namedFuncs(t *testing.T, src []byte, prefix string) map[string]string {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, prefix) {
			name := strings.TrimPrefix(fd.Name.Name, prefix)
			fd.Name.Name = "g" + name
			var b strings.Builder
			if err := format.Node(&b, fset, fd); err != nil {
				t.Fatal(err)
			}
			out[name] = b.String()
		}
	}
	return out
}

// Every guarded form compiles in a schema that holds every mutant of the
// f functions, is the text of its g twin, and computes what the original
// computes with no mutant on and what the mutant computes with its number
// on. No go process starts: the type checker runs in process, and the
// forms run compiled into this test.
func TestGuardedForms(t *testing.T) {
	p, ms := loadForms(t)
	held := map[int]bool{}
	for i, m := range ms {
		if !p.compiles(m) {
			t.Errorf("%d:%d %s does not compile", m.line, m.col, m.desc)
		}
		held[i] = true
	}
	srcs, _, err := p.schema(ms, held)
	if err != nil || len(held) != len(ms) {
		t.Fatalf("the schema holds %d of %d mutants: %v", len(held), len(ms), err)
	}
	self, err := os.ReadFile("forms_test.go")
	if err != nil {
		t.Fatal(err)
	}
	got, want := namedFuncs(t, srcs["p.go"], "f"), namedFuncs(t, self, "g")
	for name, g := range got {
		if g != want[name] {
			t.Errorf("the schema writes\n%s\nwhere g%s is\n%s", g, name, want[name])
		}
	}
	fns := map[string][2]int{} // f function -> its byte range in the fixture
	for _, d := range p.files["p.go"].Decls {
		fd := d.(*ast.FuncDecl)
		fns[fd.Name.Name] = [2]int{p.fset.Position(fd.Pos()).Offset, p.fset.Position(fd.End()).Offset}
	}
	defer func() { schemaMutant = 0 }()
	for _, c := range []struct {
		fn   string
		call func() any
		want []any // with no mutant on, then with each of fn's mutants on
	}{
		{"fLSS", func() any { return gLSS(2, 2) }, []any{false, true}},
		{"fLEQ", func() any { return gLEQ(2, 2) }, []any{true, false}},
		{"fGTR", func() any { return gGTR(2, 2) }, []any{false, true}},
		{"fGEQ", func() any { return gGEQ("x", "x") }, []any{true, false}},
		{"fEQL", func() any { return gEQL(nil, nil) }, []any{true, false}},
		{"fNEQ", func() any { return gNEQ(nil) }, []any{false, true}},
		{"fNegate", func() any { return gNegate(true) }, []any{false, true, true}}, // delete, negate
		{"fADD", func() any { return gADD(1, 2) }, []any{uint8(3), uint8(255)}},
		{"fSUB", func() any { return gSUB(1, 2) }, []any{-1.0, 3.0}},
		{"fAddAssign", func() any { return gAddAssign(1, 2) }, []any{3, 1, -1}}, // delete, swap
		{"fSubAssign", func() any { return gSubAssign(1, 2) }, []any{-1, 1, 3}},
		{"fInc", func() any { return gInc(1) }, []any{2, 1, 0}},
		{"fDec", func() any { return gDec(1) }, []any{0, 1, 2}},
		{"fLiteral", func() any { return gLiteral(2) }, []any{20, 22, 18}}, // inc, dec
		{"fDelete", func() any { return gDelete(1, 2) }, []any{2, 1}},
		// Integer division stays: 7/2 is 3, not 3.5; then 8/2, 6/2, 7/3, 7/1.
		{"fConst", func() any { return gConst() }, []any{3.0, 4.0, 3.0, 2.0, 7.0}},
		// A flip inside a negated condition of a deletable if, around a
		// deletable assignment: delete the if, negate, flip, delete.
		{"fNested", func() any { return gNested(1, 2) }, []any{true, false, false, true, false}},
		{"fNested", func() any { return gNested(2, 2) }, []any{false, false, true, true, false}},
	} {
		ks := []int{0}
		for i, m := range ms {
			if fns[c.fn][0] <= m.off && m.end <= fns[c.fn][1] {
				ks = append(ks, i+1)
			}
		}
		if len(ks) != len(c.want) {
			t.Errorf("%s has %d mutants, the row %d", c.fn, len(ks)-1, len(c.want)-1)
			continue
		}
		for i, k := range ks {
			schemaMutant = k
			if got := c.call(); got != c.want[i] {
				t.Errorf("%s with mutant %d on: %v, want %v", c.fn, k, got, c.want[i])
			}
		}
	}
}
