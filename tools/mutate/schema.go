package main

import (
	_ "embed"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/scanner"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

//go:embed guard.go
var guardSrc string

// A pkg is the target package's non-test files and what it takes to
// type-check them in process.
type pkg struct {
	path, module, dir, name string
	fset                    *token.FileSet
	names                   []string // base names, in go list's order
	srcs                    map[string][]byte
	files                   map[string]*ast.File
	imp                     types.Importer
	goVersion               string
}

// loadPkg parses the non-test files of the package at dir and reads its
// imports' export data, as `go list -export` builds it.
func loadPkg(dir string) (*pkg, error) {
	info, err := goList("-f", "{{.ImportPath}}|{{.Module.Path}}|{{.Dir}}|{{.Name}}|{{.Module.GoVersion}}|{{join .GoFiles \" \"}}", dir)
	if err != nil {
		return nil, err
	}
	f := strings.Split(info[0], "|")
	p := &pkg{path: f[0], module: f[1], dir: f[2], name: f[3], goVersion: "go" + f[4], fset: token.NewFileSet(),
		names: strings.Fields(f[5]), srcs: map[string][]byte{}, files: map[string]*ast.File{}} // go list sorts GoFiles
	exports, err := goList("-deps", "-export", "-f", "{{.ImportPath}}|{{.Export}}", dir)
	if err != nil {
		return nil, err
	}
	export := map[string]string{}
	for _, l := range exports {
		path, file, _ := strings.Cut(l, "|")
		export[path] = file
	}
	p.imp = importer.ForCompiler(p.fset, "gc", func(path string) (io.ReadCloser, error) {
		if export[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(export[path])
	})
	for _, n := range p.names {
		if p.srcs[n], err = os.ReadFile(filepath.Join(p.dir, n)); err != nil {
			return nil, err
		}
		if p.files[n], err = parser.ParseFile(p.fset, n, p.srcs[n], 0); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// check type-checks the package with the files of srcs (base name ->
// source) in place of its own, and extra added, and returns every error:
// the parser's or the type checker's.
func (p *pkg) check(srcs map[string][]byte, extra string, info *types.Info) []*scanner.Error {
	var files []*ast.File
	var errs []*scanner.Error
	add := func(name string, src []byte) {
		f, err := parser.ParseFile(p.fset, name, src, 0)
		var list scanner.ErrorList
		errors.As(err, &list)
		errs = append(errs, list...)
		files = append(files, f)
	}
	for _, n := range p.names {
		if src, ok := srcs[n]; ok {
			add(n, src)
		} else {
			files = append(files, p.files[n])
		}
	}
	if extra != "" {
		add("mutant_schema.go", []byte(extra))
	}
	if len(errs) > 0 {
		return errs
	}
	conf := types.Config{Importer: p.imp, GoVersion: p.goVersion, Error: func(err error) {
		te := err.(types.Error)
		errs = append(errs, &scanner.Error{Pos: p.fset.Position(te.Pos), Msg: te.Msg})
	}}
	conf.Check(p.path, p.fset, files, info)
	return errs
}

// compiles reports whether the package type-checks with mutant m alone.
func (p *pkg) compiles(m mutant) bool {
	return len(p.check(map[string][]byte{m.file: m.apply(p.srcs[m.file])}, "", nil)) == 0
}

// A guard is mutant k's guarded form: bytes [off, end) of its file become
// form, where "\x00" and a digit stand for the schema text of that hole.
// A whole guard's one hole is its own range, so guards with the same range
// nest inside it.
type guard struct {
	k, off, end int
	holes       [][2]int
	form        string
	whole       bool
}

// guards returns the guarded form of each mutant of ms in held (by index),
// by file, outermost first. A mutant in a constant expression guards the
// whole expression with its two values, so that neither loses constant
// arithmetic; a flip of an ordering or a swap of a sign calls a generic
// helper at the operands' type; an op-assign or ++/-- statement becomes an
// if-else, which only a list of statements can hold.
func (p *pkg) guards(ms []mutant, held map[int]bool) (map[string][]guard, error) {
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
	if errs := p.check(nil, "", info); len(errs) > 0 {
		return nil, errs[0]
	}
	byFile := map[string][]guard{}
	for _, name := range p.names {
		f, src := p.files[name], p.srcs[name]
		off := func(pos token.Pos) int { return p.fset.Position(pos).Offset }
		at := map[int]ast.Node{} // operator or literal offset -> its node
		parent := map[ast.Node]ast.Node{}
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			if len(stack) > 0 {
				parent[n] = stack[len(stack)-1]
			}
			stack = append(stack, n)
			switch n := n.(type) {
			case *ast.BinaryExpr:
				at[off(n.OpPos)] = n
			case *ast.AssignStmt:
				at[off(n.TokPos)] = n
			case *ast.IncDecStmt:
				at[off(n.TokPos)] = n
			case *ast.BasicLit:
				at[off(n.Pos())] = n
			}
			return true
		})
		imports := map[string]string{} // path -> name in this file
		for _, s := range f.Imports {
			if s.Name == nil {
				imports[strings.Trim(s.Path.Value, `"`)] = ""
			} else {
				imports[strings.Trim(s.Path.Value, `"`)] = s.Name.Name
			}
		}
		// targ is t as an explicit type argument, or "" where inference
		// must do: an untyped operand, or a type this file cannot name.
		targ := func(t types.Type) string {
			if b, ok := t.(*types.Basic); t == nil || ok && b.Info()&types.IsUntyped != 0 {
				return ""
			}
			ok := true
			s := types.TypeString(t, func(q *types.Package) string {
				if q.Path() == p.path {
					return ""
				}
				n, in := imports[q.Path()]
				ok = ok && in && n != "." && n != "_"
				if n == "" {
					n = q.Name()
				}
				return n
			})
			if !ok {
				return ""
			}
			return "[" + s + "]"
		}
		span := func(n ast.Node) [2]int { return [2]int{off(n.Pos()), off(n.End())} }
		for i, m := range ms {
			if !held[i] || m.file != name {
				continue
			}
			k := i + 1
			g := guard{k: k, off: m.off, end: m.end, holes: [][2]int{{m.off, m.end}}, whole: true}
			var n ast.Node // the operator's or literal's node
			if m.op != 1 && m.op != 5 {
				n = at[m.off]
			}
			if e, ok := n.(ast.Expr); ok && info.Types[e].Value != nil {
				// The largest constant expression around the site.
				for {
					pe, ok := parent[e].(ast.Expr)
					if !ok || info.Types[pe].Value == nil {
						break
					}
					e = pe
				}
				s := span(e)
				alt := string(src[s[0]:m.off]) + m.repl + string(src[m.end:s[1]])
				g.off, g.end, g.holes = s[0], s[1], [][2]int{s}
				g.form = fmt.Sprintf("schemaPick%s(%d, \x000, %s)", targ(info.Types[e].Type), k, alt)
				byFile[name] = append(byFile[name], g)
				continue
			}
			if _, ok := n.(ast.Stmt); ok && !inList(parent[n]) {
				continue // an if-else cannot stand in a for post or an if's init
			}
			switch n := n.(type) {
			case *ast.BinaryExpr:
				g.off, g.end = span(n)[0], span(n)[1]
				if n.Op == token.EQL || n.Op == token.NEQ {
					g.holes[0], g.form = span(n), fmt.Sprintf("(schemaOn(%d) != (\x000))", k)
					break
				}
				t := info.Types[n.X].Type
				if b, ok := t.(*types.Basic); ok && b.Info()&types.IsUntyped != 0 {
					t = info.Types[n.Y].Type
				}
				if n.Op == token.ADD || n.Op == token.SUB {
					t = info.Types[n].Type
				}
				g.holes, g.whole = [][2]int{span(n.X), span(n.Y)}, false
				g.form = fmt.Sprintf("schema%s%s(%d, \x000, \x001)", helpers[n.Op], targ(t), k)
			case *ast.AssignStmt:
				g.off, g.end = span(n)[0], span(n)[1]
				g.holes, g.whole = [][2]int{span(n.Lhs[0]), span(n.Rhs[0])}, false
				g.form = fmt.Sprintf("if schemaOn(%d) { \x000 %s \x001 } else { \x000 %s \x001 }", k, swaps[n.Tok], n.Tok)
			case *ast.IncDecStmt:
				g.off, g.end = span(n)[0], span(n)[1]
				g.holes, g.whole = [][2]int{span(n.X)}, false
				g.form = fmt.Sprintf("if schemaOn(%d) { \x000%s } else { \x000%s }", k, swaps[n.Tok], n.Tok)
			default:
				g.form = fmt.Sprintf("if !schemaOn(%d) { \x000 }", k)
				if m.op == 1 {
					g.form = fmt.Sprintf("(schemaOn(%d) != (\x000))", k)
				}
			}
			byFile[name] = append(byFile[name], g)
		}
	}
	for _, gs := range byFile {
		sort.SliceStable(gs, func(a, b int) bool {
			x, y := gs[a], gs[b]
			return x.off < y.off || x.off == y.off && (x.end > y.end || x.end == y.end && x.whole && !y.whole)
		})
	}
	return byFile, nil
}

// inList reports whether n holds a list of statements.
func inList(n ast.Node) bool {
	switch n.(type) {
	case *ast.BlockStmt, *ast.CaseClause, *ast.CommClause:
		return true
	}
	return false
}

// helpers names guard.go's helper for each operator that has one.
var helpers = map[token.Token]string{token.LSS: "LSS", token.LEQ: "LEQ", token.GTR: "GTR", token.GEQ: "GEQ", token.ADD: "ADD", token.SUB: "SUB"}

// A span is where guard k's text landed in a schema file.
type span struct{ k, off, end int }

// render writes src[off:end] with gs (sorted outermost first, all inside
// [off, end)) applied to b, and where each guard landed to spans.
func render(b *strings.Builder, spans *[]span, src []byte, gs []guard, off, end int) {
	for i := 0; i < len(gs); {
		g, j := gs[i], i+1
		for j < len(gs) && gs[j].off < g.end {
			j++
		}
		b.Write(src[off:g.off])
		start, form := b.Len(), g.form
		for {
			h := strings.IndexByte(form, 0)
			if h < 0 {
				break
			}
			b.WriteString(form[:h])
			r := g.holes[form[h+1]-'0']
			var in []guard
			for _, x := range gs[i+1 : j] {
				if r[0] <= x.off && x.end <= r[1] {
					in = append(in, x)
				}
			}
			render(b, spans, src, in, r[0], r[1])
			form = form[h+2:]
		}
		b.WriteString(form)
		*spans = append(*spans, span{g.k, start, b.Len()})
		off, i = g.end, j
	}
	b.Write(src[off:end])
}

// schema writes every mutant of held (indexes of ms) into one copy of the
// package's files and drops from held each mutant that has no guard there
// or whose guard does not compile: a guard is blamed for each error of the
// type checker inside its text and no other guard's inside it. It returns
// the schema's files by base name (only those with a guard) and the file
// it adds.
func (p *pkg) schema(ms []mutant, held map[int]bool) (map[string][]byte, string, error) {
	guardFile := strings.Replace(guardSrc, "package main", "package "+p.name, 1)
	all, err := p.guards(ms, held)
	if err != nil {
		return nil, "", err
	}
	for {
		srcs, spans, placed := map[string][]byte{}, map[string][]span{}, map[int]bool{}
		for name, gs := range all {
			var in []guard
			for _, g := range gs {
				if held[g.k-1] {
					in = append(in, g)
				}
			}
			var b strings.Builder
			var ss []span
			render(&b, &ss, p.srcs[name], in, 0, len(p.srcs[name]))
			srcs[name], spans[name] = []byte(b.String()), ss
			for _, s := range ss {
				placed[s.k-1] = true
			}
		}
		dropped := false
		for i := range held {
			if !placed[i] {
				delete(held, i)
				dropped = true
			}
		}
		errs := p.check(srcs, guardFile, nil)
		if len(errs) == 0 && !dropped {
			return srcs, guardFile, nil
		}
		for _, err := range errs {
			var in *span
			for i, s := range spans[err.Pos.Filename] {
				if s.off <= err.Pos.Offset && err.Pos.Offset < s.end && (in == nil || s.end-s.off < in.end-in.off) {
					in = &spans[err.Pos.Filename][i]
				}
			}
			if in == nil {
				return nil, "", fmt.Errorf("schema: an error outside every guard: %v", err)
			}
			delete(held, in.k-1)
		}
	}
}
