// Command mutate is a deterministic mutation tester for one package of this
// module. It lists the package's mutants in a fixed order (file, then byte
// position, then operator), runs each one through `go test -overlay`, so the
// tree is never copied or written, and prints one verdict line per mutant:
// killed (with the tests that failed on it), survived, timed-out or
// does-not-compile.
//
// Usage, from the module root:
//
//	go run ./tools/mutate [-own] [-sample k] ./internal/core > core.txt
//
// The operators are: flip a comparison (< <=, > >=, == !=), negate an if
// condition, swap + and - (binary, op-assign and ++/--), add or subtract 1
// on an integer literal, and delete a statement (an expression, assignment,
// ++/--, if, branch, defer, go or send statement).
//
// A package's test set is its own tests, then (unless -own) the tests of
// every in-module package whose tests depend on it, less slowSuites. Those
// run only when its own tests kill a mutant with fewer than two tests, so
// the score is the whole set's and a test that alone kills a mutant is
// known. A mutant on which any test failed is killed, and its line lists
// every stage's failures; one is timed-out only if a test binary ran past
// its cap and no test failed. -sample k runs one mutant in k, from the
// first. As many mutants run at once as GOMAXPROCS allows.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// slowSuites are left out of every test set: golden suites of many seconds
// a run that reach the packages through the root package, whose tests stay.
var slowSuites = map[string]bool{
	"micco/internal/experiment": true,
	"micco/internal/autotune":   true,
}

var opNames = []string{"flip", "negate", "swap", "inc", "dec", "delete"}

// A mutant is one edit of one file: bytes [off, end) become repl.
type mutant struct {
	file, desc, repl        string // file is a base name
	line, col, off, end, op int    // op indexes opNames
}

var flips = map[token.Token]token.Token{
	token.LSS: token.LEQ, token.LEQ: token.LSS,
	token.GTR: token.GEQ, token.GEQ: token.GTR,
	token.EQL: token.NEQ, token.NEQ: token.EQL,
}

var swaps = map[token.Token]token.Token{
	token.ADD: token.SUB, token.SUB: token.ADD,
	token.ADD_ASSIGN: token.SUB_ASSIGN, token.SUB_ASSIGN: token.ADD_ASSIGN,
	token.INC: token.DEC, token.DEC: token.INC,
}

// enumerate lists the mutants of one file in position, then operator, order.
func enumerate(fset *token.FileSet, name string, src []byte) ([]mutant, error) {
	f, err := parser.ParseFile(fset, name, src, 0)
	if err != nil {
		return nil, err
	}
	var ms []mutant
	add := func(pos, end token.Pos, op int, desc, repl string) {
		p := fset.Position(pos)
		ms = append(ms, mutant{file: filepath.Base(name), line: p.Line, col: p.Column,
			off: p.Offset, end: fset.Position(end).Offset, op: op, desc: desc, repl: repl})
	}
	tok := func(pos token.Pos, from, to token.Token, op int) {
		add(pos, pos+token.Pos(len(from.String())), op, from.String()+" -> "+to.String(), to.String())
	}
	text := func(n ast.Node) string {
		return string(src[fset.Position(n.Pos()).Offset:fset.Position(n.End()).Offset])
	}
	ast.Inspect(f, func(n ast.Node) bool {
		var body []ast.Stmt
		switch n := n.(type) {
		case *ast.BinaryExpr:
			if to, ok := flips[n.Op]; ok {
				tok(n.OpPos, n.Op, to, 0)
			} else if to, ok := swaps[n.Op]; ok {
				tok(n.OpPos, n.Op, to, 2)
			}
		case *ast.AssignStmt:
			if to, ok := swaps[n.Tok]; ok {
				tok(n.TokPos, n.Tok, to, 2)
			}
		case *ast.IncDecStmt:
			tok(n.TokPos, n.Tok, swaps[n.Tok], 2)
		case *ast.IfStmt:
			add(n.Cond.Pos(), n.Cond.End(), 1, "if !("+oneLine(text(n.Cond))+")", "!("+text(n.Cond)+")")
		case *ast.BasicLit:
			if n.Kind == token.INT {
				add(n.Pos(), n.End(), 3, n.Value+" -> "+n.Value+"+1", "("+n.Value+"+1)")
				add(n.Pos(), n.End(), 4, n.Value+" -> "+n.Value+"-1", "("+n.Value+"-1)")
			}
		case *ast.BlockStmt:
			body = n.List
		case *ast.CaseClause:
			body = n.Body
		case *ast.CommClause:
			body = n.Body
		}
		for _, st := range body {
			a, isAssign := st.(*ast.AssignStmt)
			switch st.(type) {
			case *ast.ExprStmt, *ast.IncDecStmt, *ast.IfStmt, *ast.BranchStmt, *ast.DeferStmt, *ast.GoStmt, *ast.SendStmt, *ast.AssignStmt:
				if !isAssign || a.Tok != token.DEFINE { // deleting a := leaves its names undefined
					add(st.Pos(), st.End(), 5, oneLine(text(st)), "")
				}
			}
		}
		return true
	})
	sort.SliceStable(ms, func(i, j int) bool {
		return ms[i].off < ms[j].off || ms[i].off == ms[j].off && ms[i].op < ms[j].op
	})
	return ms, nil
}

// oneLine is a statement's first line, its blanks collapsed, cut to 48 bytes.
func oneLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i] + " ..."
	}
	s = strings.Join(strings.Fields(s), " ")
	if len(s) > 48 {
		s = s[:45] + "..."
	}
	return s
}

// goList runs `go list` with a template and returns its lines.
func goList(args ...string) ([]string, error) {
	out, err := exec.Command("go", append([]string{"list"}, args...)...).Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %w", strings.Join(args, " "), err)
	}
	return strings.Split(strings.TrimSpace(string(out)), "\n"), nil
}

// importers lists the in-module packages with tests, the target left out,
// whose tests depend on target: through their own imports, their test
// files' imports or what those import.
func importers(target string) ([]string, error) {
	lines, err := goList("-f", "{{.ImportPath}}|{{join .Deps \" \"}}|{{join .TestImports \" \"}} {{join .XTestImports \" \"}}|{{if or .TestGoFiles .XTestGoFiles}}tests{{end}}", "./...")
	if err != nil {
		return nil, err
	}
	deps := map[string]string{} // package -> " dep1 dep2 ... "
	for _, l := range lines {
		f := strings.Split(l, "|")
		deps[f[0]] = " " + f[1] + " "
	}
	var out []string
	for _, l := range lines {
		f := strings.Split(l, "|")
		uses := strings.Contains(deps[f[0]], " "+target+" ")
		for _, t := range strings.Fields(f[2]) {
			uses = uses || t == target || strings.Contains(deps[t], " "+target+" ")
		}
		if uses && f[3] != "" && f[0] != target && !slowSuites[f[0]] {
			out = append(out, f[0])
		}
	}
	return out, nil
}

// short names a package by its module path less "micco/" and "internal/".
func short(pkg, module string) string {
	return strings.TrimPrefix(strings.TrimPrefix(pkg, module+"/"), "internal/")
}

// goTest runs pkgs' tests with overlay (none if empty), each test binary
// under limit, and returns the top-level tests that failed, plus each
// package that failed outside any test and not by running out of time, and
// whether a test binary ran out of time. limit bounds a binary's run, not
// the build before it, so a loaded machine slows a verdict without moving
// it; the whole command has a safety cap of twice that plus ten minutes.
func goTest(overlay string, limit time.Duration, module string, pkgs []string) (failed []string, timedOut bool) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*limit+10*time.Minute)
	defer cancel()
	args := []string{"test", "-json", "-count=1", "-vet=off", "-timeout", limit.String()}
	if overlay != "" {
		args = append(args, "-overlay", overlay)
	}
	cmd := exec.CommandContext(ctx, "go", append(args, pkgs...)...)
	cmd.WaitDelay = 10 * time.Second
	out, _ := cmd.Output()
	timedOut = ctx.Err() != nil
	set := map[string]bool{}
	bare := map[string]bool{}    // package -> failed with no test failing
	expired := map[string]bool{} // package -> its binary ran past limit
	for _, l := range bytes.Split(out, []byte("\n")) {
		var ev struct{ Action, Package, Test, Output string }
		if json.Unmarshal(l, &ev) != nil {
			continue
		}
		if strings.Contains(ev.Output, "panic: test timed out") {
			timedOut, expired[ev.Package] = true, true
		}
		if ev.Action != "fail" {
			continue
		}
		if ev.Test == "" { // a package's result follows its tests'
			_, testFailed := bare[ev.Package]
			bare[ev.Package] = !testFailed
			continue
		}
		top, _, _ := strings.Cut(ev.Test, "/")
		set[short(ev.Package, module)+"."+top] = true
		bare[ev.Package] = false
	}
	for p, b := range bare {
		if b && !expired[p] {
			set[short(p, module)] = true
		}
	}
	for t := range set {
		failed = append(failed, t)
	}
	sort.Strings(failed)
	return failed, timedOut
}

func main() {
	own := flag.Bool("own", false, "run the package's own tests only")
	sample := flag.Int("sample", 1, "run one mutant in n of the list, from the first")
	flag.Parse()
	if flag.NArg() != 1 || *sample < 1 {
		fmt.Fprintln(os.Stderr, "usage: go run ./tools/mutate [-own] [-sample k] <package dir>")
		os.Exit(2)
	}
	// A mutant can turn a loop into one that allocates without end. A data
	// limit, inherited by every process go starts, makes such a test binary
	// fail alone; the unmutated run checks that the tests fit in it.
	err := syscall.Setrlimit(syscall.RLIMIT_DATA, &syscall.Rlimit{Cur: 1 << 30, Max: 1 << 30})
	if err == nil {
		err = run(flag.Arg(0), *own, *sample)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mutate:", err)
		os.Exit(1)
	}
}

// A job is what every mutant of one package is run against.
type job struct {
	tmp, pkgDir, target, module string
	stages                      [2][]string // own tests; importers' tests
	limits                      [2]time.Duration
}

func run(dir string, own bool, sample int) error {
	info, err := goList("-f", "{{.ImportPath}}|{{.Module.Path}}|{{.Dir}}|{{join .GoFiles \" \"}}", dir)
	if err != nil {
		return err
	}
	f := strings.Split(info[0], "|")
	j := job{target: f[0], module: f[1], pkgDir: f[2]}
	var ms []mutant
	srcs := map[string][]byte{}
	fset := token.NewFileSet()
	for _, name := range strings.Fields(f[3]) { // go list sorts GoFiles
		path := filepath.Join(j.pkgDir, name)
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		srcs[name] = src
		fm, err := enumerate(fset, path, src)
		if err != nil {
			return err
		}
		ms = append(ms, fm...)
	}
	total := len(ms)
	for i := 0; i*sample < total; i++ {
		ms[i] = ms[i*sample]
	}
	ms = ms[:(total+sample-1)/sample]
	w := os.Stdout

	j.stages[0] = []string{j.target}
	if !own {
		if j.stages[1], err = importers(j.target); err != nil {
			return err
		}
	}
	// The unmutated tests must pass; their time sets each stage's cap.
	for i, pkgs := range j.stages {
		if len(pkgs) == 0 {
			continue
		}
		start := time.Now()
		if failed, timedOut := goTest("", 10*time.Minute, j.module, pkgs); len(failed) > 0 || timedOut {
			return fmt.Errorf("unmutated tests fail: %v", failed)
		}
		j.limits[i] = max(5*time.Since(start), time.Minute)
	}
	fmt.Fprintf(w, "# mutants of %s: go run ./tools/mutate%s %s\n", short(j.target, j.module), map[bool]string{true: " -own"}[own], dir)
	fmt.Fprintf(w, "# operators: %s\n# test set: %s", strings.Join(opNames, ", "), short(j.target, j.module))
	if len(j.stages[1]) > 0 {
		fmt.Fprintf(w, "; when it kills with fewer than two tests, also:")
		for _, p := range j.stages[1] {
			fmt.Fprintf(w, " %s", short(p, j.module))
		}
	}
	if sample > 1 {
		fmt.Fprintf(w, "\n# sample: 1 in %d of %d mutants, from the first", sample, total)
	}
	fmt.Fprintf(w, "\n# position\toperator\tmutation\tverdict\tfailed tests\n")

	if j.tmp, err = os.MkdirTemp("", "mutate"); err != nil {
		return err
	}
	defer os.RemoveAll(j.tmp)
	// Up to GOMAXPROCS mutants run at once; their lines are written in order.
	lines := make([]chan string, len(ms))
	for i := range lines {
		lines[i] = make(chan string, 1)
	}
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	go func() {
		for i, m := range ms {
			sem <- struct{}{}
			go func() {
				defer func() { <-sem }()
				v, tests := j.verdict(i, m, srcs[m.file])
				lines[i] <- strings.TrimSpace(fmt.Sprintf("%s:%d:%d\t%s\t%s\t%s\t%s", m.file, m.line, m.col, opNames[m.op], m.desc, v, strings.Join(tests, " ")))
			}()
		}
	}()
	counts := map[string]int{}
	for _, c := range lines {
		l := <-c
		counts[strings.Split(l, "\t")[3]]++
		if _, err := fmt.Fprintln(w, l); err != nil {
			return err
		}
	}
	killed, survived := counts["killed"]+counts["timed-out"], counts["survived"]
	fmt.Fprintf(w, "# %d mutants: %d killed, %d timed-out, %d survived, %d does-not-compile; score %d/%d = %.1f%%\n",
		len(ms), counts["killed"], counts["timed-out"], survived, counts["does-not-compile"],
		killed, killed+survived, 100*float64(killed)/float64(max(killed+survived, 1)))
	return nil
}

// verdict builds and tests mutant i, returning its verdict and the tests
// that failed on it.
func (j *job) verdict(i int, m mutant, src []byte) (string, []string) {
	mutated := filepath.Join(j.tmp, fmt.Sprintf("m%d.go", i))
	overlay := filepath.Join(j.tmp, fmt.Sprintf("m%d.json", i))
	defer os.Remove(mutated)
	defer os.Remove(overlay)
	body := append(append(append([]byte{}, src[:m.off]...), m.repl...), src[m.end:]...)
	ov, _ := json.Marshal(map[string]map[string]string{"Replace": {filepath.Join(j.pkgDir, m.file): mutated}})
	if err := errors.Join(os.WriteFile(mutated, body, 0o644), os.WriteFile(overlay, ov, 0o644)); err != nil {
		fmt.Fprintln(os.Stderr, "mutate:", err)
		os.Exit(1)
	}
	if exec.Command("go", "build", "-overlay", overlay, j.target).Run() != nil {
		return "does-not-compile", nil
	}
	var failed []string
	timedOut := false
	for s, pkgs := range j.stages {
		if len(pkgs) == 0 || len(failed) >= 2 {
			break
		}
		f, t := goTest(overlay, j.limits[s], j.module, pkgs)
		failed, timedOut = append(failed, f...), timedOut || t
	}
	switch {
	case len(failed) > 0:
		return "killed", failed
	case timedOut:
		return "timed-out", nil
	}
	return "survived", nil
}
