// Command mutate is a deterministic mutation tester for one package of this
// module. It lists the package's mutants in a fixed order (file, then byte
// position, then operator), runs each one against the tests that execute
// it, and prints one verdict line per mutant: killed (with the tests that
// failed on it), survived, timed-out or does-not-compile. The tree is never
// copied or written.
//
// Usage, from the module root:
//
//	go run ./tools/mutate ./internal/core > core.txt
//
// The operators are: flip a comparison (< <=, > >=, == !=), negate an if
// condition, swap + and - (binary, op-assign and ++/--), add or subtract 1
// on an integer literal, and delete a statement (an expression, assignment,
// ++/--, if, branch, defer, go or send statement).
//
// Whether a mutant compiles is decided by type-checking the package with
// it, in process. Every compiling mutant inside a function body is written
// into one schema of the package (schema.go): each is guarded by its
// number, which the test binary reads from its environment (guard.go), so
// each test binary is built once a run and a mutant runs by setting its
// number. A mutant the schema cannot hold (one outside every function
// body, or one whose guard does not compile) is built into test binaries
// of its own, through `go test -overlay`.
//
// A package's test set is its own tests, then the tests of every in-module
// package whose tests depend on it, less slowSuites. Those run only when
// its own tests finish on a mutant within their cap and fewer than two of
// them fail, so the score is the whole set's and a test that alone kills a
// mutant is known. Of each stage, a mutant runs only the tests
// that execute its bytes: every test is run alone once under coverage of
// the package, and a mutant takes the tests that cover a block it
// overlaps. One in no block takes those that enter its function, one
// outside every function the whole stage, and one that no test executes
// is decided by whether it compiles. A mutant on which any test failed is
// killed, and its line lists every stage's failures. A test that ends its
// binary with a panic of its own is one; one that ends it without a result
// (a fatal error, another goroutine's panic) is one only if it also fails
// run alone in its binary, and otherwise a goroutine another test left
// running ended it and the package is charged. The tests after it run
// again. One is timed-out only if a test binary ran past its cap and no
// test failed. As many mutants run at once as GOMAXPROCS allows.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
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

// A mutant is one edit of one file: bytes [off, end) become repl. fn is
// the byte range of the innermost function body around it, if any.
type mutant struct {
	file, desc, repl        string // file is a base name
	line, col, off, end, op int    // op indexes opNames
	fn                      [2]int
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
	var fns [][2]int // function bodies
	ast.Inspect(f, func(n ast.Node) bool {
		var body []ast.Stmt
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				fns = append(fns, [2]int{fset.Position(n.Body.Pos()).Offset, fset.Position(n.Body.End()).Offset})
			}
		case *ast.FuncLit:
			fns = append(fns, [2]int{fset.Position(n.Body.Pos()).Offset, fset.Position(n.Body.End()).Offset})
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
	for i, m := range ms {
		for _, b := range fns { // the innermost body is the shortest around it
			if b[0] <= m.off && m.end <= b[1] && (m.fn[1] == 0 || b[1]-b[0] < m.fn[1]-m.fn[0]) {
				ms[i].fn = b
			}
		}
	}
	return ms, nil
}

// apply returns src, m's file, with m's edit made.
func (m mutant) apply(src []byte) []byte {
	return append(append(append([]byte{}, src[:m.off]...), m.repl...), src[m.end:]...)
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

// parse reads the test2json events of one run of a test binary over tests
// (top-level tests), which exited with an error if exitErr. It returns the
// tests that failed; the test that was running when its binary died without
// a result (a panic on another goroutine, or a fatal error such as the data
// limit, reports no failure), if any; the tests that got no result, because
// a test before them ended the binary, less that one; whether the binary
// failed outside any test and not by running out of time; and whether it
// ran out of time. A binary that ran out of time or failed outside any test
// has no tests to run again.
func parse(events []byte, exitErr bool, tests []string) (failed, rest []string, died string, bare, timedOut bool) {
	done := map[string]bool{} // top-level test -> got a result
	running := ""             // the last top-level test started
	for _, l := range bytes.Split(events, []byte("\n")) {
		var ev struct{ Action, Test, Output string }
		if json.Unmarshal(l, &ev) != nil {
			continue
		}
		timedOut = timedOut || strings.Contains(ev.Output, "panic: test timed out")
		top, _, sub := strings.Cut(ev.Test, "/")
		switch {
		case ev.Test == "":
		case ev.Action == "run" && !sub:
			running = top
		case ev.Action == "fail":
			failed, done[top] = append(failed, top), true
		case (ev.Action == "pass" || ev.Action == "skip") && !sub:
			done[top] = true
		}
	}
	if exitErr && !timedOut && running != "" && !done[running] {
		died, done[running] = running, true
	}
	slices.Sort(failed)
	failed = slices.Compact(failed)
	if bare = exitErr && !timedOut && len(failed) == 0 && died == ""; bare || timedOut {
		return failed, nil, "", bare, timedOut
	}
	for _, t := range tests {
		if !done[t] {
			rest = append(rest, t)
		}
	}
	return failed, rest, died, false, false
}

// build builds the test binary of each of pkgs into dir, under overlay
// (none if empty), GOMAXPROCS at a time, and returns their paths by
// package; a package whose tests do not build has none.
func build(dir, overlay string, pkgs []string) map[string]string {
	bins := make([]string, len(pkgs))
	parallel(len(pkgs), func(k int) error {
		bin := filepath.Join(dir, fmt.Sprintf("%d.test", k))
		args := []string{"test", "-c", "-vet=off", "-o", bin}
		if overlay != "" {
			args = append(args, "-overlay", overlay)
		}
		if exec.Command("go", append(args, pkgs[k])...).Run() == nil {
			bins[k] = bin
		}
		return nil
	})
	out := map[string]string{}
	for k, p := range pkgs {
		if bins[k] != "" {
			out[p] = bins[k]
		}
	}
	return out
}

// test runs the tests of want (package -> top-level tests) in bins, the
// test binaries by package, with mutant k on (0 for none), GOMAXPROCS
// binaries at a time. It returns the tests that failed, plus each package
// that has no binary or failed outside any test and not by running out of
// time, and whether a test binary ran out of time.
func (j *job) test(bins map[string]string, k int, limit time.Duration, want map[string][]string) (failed []string, timedOut bool) {
	var pkgs []string
	for p := range want {
		pkgs = append(pkgs, p)
	}
	sort.Strings(pkgs)
	fs, ts := make([][]string, len(pkgs)), make([]bool, len(pkgs))
	parallel(len(pkgs), func(i int) error {
		if bin := bins[pkgs[i]]; bin == "" {
			fs[i] = []string{short(pkgs[i], j.module)}
		} else {
			fs[i], ts[i] = j.testBinary(bin, k, limit, pkgs[i], want[pkgs[i]])
		}
		return nil
	})
	for i := range pkgs {
		failed, timedOut = append(failed, fs[i]...), timedOut || ts[i]
	}
	slices.Sort(failed)
	return slices.Compact(failed), timedOut
}

// testBinary runs tests in pkg's test binary, with mutant k on, under
// limit, through runAll. Each run has a safety cap of twice the limit
// plus ten minutes.
func (j *job) testBinary(bin string, k int, limit time.Duration, pkg string, tests []string) (failed []string, timedOut bool) {
	return runAll(short(pkg, j.module), tests, func(tests []string) ([]byte, bool, bool) {
		ctx, cancel := context.WithTimeout(context.Background(), 2*limit+10*time.Minute)
		defer cancel()
		var out bytes.Buffer
		cmd := exec.CommandContext(ctx, bin, "-test.v=test2json", "-test.paniconexit0", "-test.count=1",
			"-test.timeout="+limit.String(), "-test.run=^("+strings.Join(tests, "|")+")$")
		cmd.Dir, cmd.Stdout, cmd.Stderr, cmd.WaitDelay = j.dirs[pkg], &out, &out, 10*time.Second
		cmd.Env = append(os.Environ(), fmt.Sprintf("MUTANT=%d", k))
		exitErr := cmd.Run() != nil
		conv := exec.Command(j.test2json)
		conv.Stdin = &out
		events, _ := conv.Output()
		return events, exitErr, ctx.Err() != nil
	})
}

// runAll runs tests through run, one test binary run over the tests it is
// given (their test2json events, whether it exited with an error and
// whether it ran past its cap), until each has a result or a run went past
// its cap or failed outside any test, and returns the failures as name.Test.
// A test that ended the binary without a result fails only if it fails run
// alone too; if not, a goroutine another test left running ended it, and
// the package, name, fails. The tests after it run again.
func runAll(name string, tests []string, run func(tests []string) (events []byte, exitErr, capped bool)) (failed []string, timedOut bool) {
	for len(tests) > 0 {
		events, exitErr, capped := run(tests)
		f, rest, died, bare, t := parse(events, exitErr, tests)
		for _, test := range f {
			failed = append(failed, name+"."+test)
		}
		if died != "" {
			if _, exitErr, _ := run([]string{died}); exitErr {
				failed = append(failed, name+"."+died)
			} else {
				bare = true
			}
		}
		if bare {
			failed = append(failed, name)
		}
		timedOut = timedOut || t || capped
		if capped || len(rest) == len(tests) { // no test got a result
			break
		}
		tests = rest
	}
	return failed, timedOut
}

// A block is the byte range [off, end) of one coverage block of a file and
// the tests, by index, that execute it.
type block struct {
	off, end int
	tests    []int
}

// cover reads test's coverage profile into cov, which maps each block,
// "file.go:line.col,line.col", to the tests that execute it. Every block
// of the profile gets a key, executed or not.
func cover(cov map[string][]int, test int, profile []byte) {
	for _, l := range strings.Split(string(profile), "\n") {
		f := strings.Fields(l)
		if len(f) != 3 { // not the "mode: set" line
			continue
		}
		key, ts := path.Base(f[0]), cov[path.Base(f[0])]
		if f[2] != "0" && (len(ts) == 0 || ts[len(ts)-1] != test) {
			ts = append(ts, test)
		}
		cov[key] = ts
	}
}

// blocks resolves cov's keys to byte ranges of the files in srcs.
func blocks(cov map[string][]int, srcs map[string][]byte) map[string][]block {
	offset := func(src []byte, line, col int) int {
		off := 0
		for ; line > 1; line-- {
			off += bytes.IndexByte(src[off:], '\n') + 1
		}
		return off + col - 1
	}
	bs := map[string][]block{}
	for key, ts := range cov {
		file, pos, _ := strings.Cut(key, ":")
		var l0, c0, l1, c1 int
		if _, err := fmt.Sscanf(pos, "%d.%d,%d.%d", &l0, &c0, &l1, &c1); err != nil || srcs[file] == nil {
			continue
		}
		sort.Ints(ts)
		bs[file] = append(bs[file], block{offset(srcs[file], l0, c0), offset(srcs[file], l1, c1), ts})
	}
	return bs
}

// selected returns the tests, by index, that execute mutant m's bytes: those
// that execute a block it overlaps or, in no block (a case expression), any
// block of its function, which they must enter to reach it. whole is true
// for a mutant outside every function body, which takes every test.
func selected(bs map[string][]block, m mutant) (tests []int, whole bool) {
	var in, fn []int
	overlaps := false
	for _, b := range bs[m.file] {
		if b.off < m.end && m.off < b.end {
			overlaps, in = true, append(in, b.tests...)
		}
		if m.fn[0] <= b.off && b.end <= m.fn[1] {
			fn = append(fn, b.tests...)
		}
	}
	switch {
	case overlaps:
		tests = in
	case m.fn[1] == 0:
		return nil, true
	default:
		tests = fn
	}
	slices.Sort(tests)
	return slices.Compact(tests), false
}

// parallel calls f(0), …, f(n-1), GOMAXPROCS at a time, and returns their
// errors joined.
func parallel(n int, f func(i int) error) error {
	errs := make([]error, n)
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i := range n {
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer func() { <-sem; wg.Done() }()
			errs[i] = f(i)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// profile builds each stage package's test binary once, covering the
// target, runs each of its top-level tests alone in it, and records which
// tests execute each block of the target's files.
func (j *job) profile(srcs map[string][]byte) error {
	pkgs := append(slices.Clone(j.stages[0]), j.stages[1]...)
	dirs, err := goList(append([]string{"-f", "{{.ImportPath}}|{{.Dir}}"}, pkgs...)...)
	if err != nil {
		return err
	}
	j.names, j.dirs = map[string][]string{}, map[string]string{}
	for _, l := range dirs {
		p, dir, _ := strings.Cut(l, "|")
		j.dirs[p] = dir
	}
	bins, names := make([]string, len(pkgs)), make([][]string, len(pkgs))
	err = parallel(len(pkgs), func(i int) error {
		bins[i] = filepath.Join(j.tmp, fmt.Sprintf("p%d.test", i))
		if out, err := exec.Command("go", "test", "-c", "-vet=off", "-cover", "-coverpkg", j.target, "-o", bins[i], pkgs[i]).CombinedOutput(); err != nil {
			return fmt.Errorf("go test -c %s: %v\n%s", pkgs[i], err, out)
		}
		out, err := exec.Command(bins[i], "-test.list", ".").Output()
		for _, t := range strings.Fields(string(out)) {
			if !strings.HasPrefix(t, "Benchmark") {
				names[i] = append(names[i], t)
			}
		}
		return err
	})
	if err != nil {
		return err
	}
	var tests []int // package index of each test
	for i, p := range pkgs {
		j.names[p] = names[i]
		for _, t := range names[i] {
			tests = append(tests, i)
			j.tests = append(j.tests, [2]string{p, t})
		}
	}
	cov := map[string][]int{}
	var mu sync.Mutex
	err = parallel(len(tests), func(t int) error {
		prof := filepath.Join(j.tmp, fmt.Sprintf("t%d.cov", t))
		cmd := exec.Command(bins[tests[t]], "-test.run", "^"+j.tests[t][1]+"$", "-test.timeout", "10m", "-test.coverprofile", prof)
		cmd.Dir = j.dirs[j.tests[t][0]]
		if out, err := cmd.CombinedOutput(); err != nil {
			return fmt.Errorf("%s.%s alone: %v\n%s", j.tests[t][0], j.tests[t][1], err, out)
		}
		b, err := os.ReadFile(prof)
		mu.Lock()
		defer mu.Unlock()
		cover(cov, t, b)
		return errors.Join(err, os.Remove(prof))
	})
	j.blocks = blocks(cov, srcs)
	return err
}

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: go run ./tools/mutate <package dir>")
		os.Exit(2)
	}
	// A mutant can turn a loop into one that allocates without end. A data
	// limit, inherited by every process go starts, makes such a test binary
	// fail alone; the unmutated run checks that the tests fit in it.
	err := syscall.Setrlimit(syscall.RLIMIT_DATA, &syscall.Rlimit{Cur: 1 << 30, Max: 1 << 30})
	if err == nil {
		err = run(os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mutate:", err)
		os.Exit(1)
	}
}

// A job is what every mutant of one package is run against.
type job struct {
	tmp, pkgDir, target, module, test2json string
	stages                                 [2][]string // own tests; importers' tests
	limits                                 [2]time.Duration
	names                                  map[string][]string // package -> its tests
	dirs                                   map[string]string   // package -> its directory
	tests                                  [][2]string         // package and name, by index
	blocks                                 map[string][]block  // file -> its blocks
	compiles                               []bool              // by mutant
	held                                   map[int]bool        // the mutants the schema holds
	bins                                   map[string]string   // package -> its schema test binary
}

func run(dir string) error {
	p, err := loadPkg(dir)
	if err != nil {
		return err
	}
	j := job{target: p.path, module: p.module, pkgDir: p.dir}
	var ms []mutant
	for _, name := range p.names {
		fm, err := enumerate(token.NewFileSet(), filepath.Join(j.pkgDir, name), p.srcs[name])
		if err != nil {
			return err
		}
		ms = append(ms, fm...)
	}
	w := os.Stdout

	if j.tmp, err = os.MkdirTemp("", "mutate"); err != nil {
		return err
	}
	defer os.RemoveAll(j.tmp)
	j.stages[0] = []string{j.target}
	if j.stages[1], err = importers(j.target); err != nil {
		return err
	}
	if err := j.profile(p.srcs); err != nil {
		return err
	}
	tool, err := exec.Command("go", "tool", "-n", "test2json").Output()
	if err != nil {
		return fmt.Errorf("go tool -n test2json: %w", err)
	}
	j.test2json = strings.TrimSpace(string(tool))

	// The schema holds every compiling mutant inside a function body whose
	// guard compiles; its test binaries are built once.
	j.compiles, j.held = make([]bool, len(ms)), map[int]bool{}
	for i, m := range ms {
		if j.compiles[i] = p.compiles(m); j.compiles[i] && m.fn[1] != 0 {
			j.held[i] = true
		}
	}
	srcs, added, err := p.schema(ms, j.held)
	if err != nil {
		return err
	}
	srcs["mutant_schema.go"] = []byte(added)
	overlay, err := j.overlay(j.tmp, srcs)
	if err != nil {
		return err
	}
	all := append(slices.Clone(j.stages[0]), j.stages[1]...)
	if j.bins = build(j.tmp, overlay, all); len(j.bins) < len(all) {
		return fmt.Errorf("the schema's test binaries do not all build")
	}
	// The schema's tests with no mutant on must pass; their time sets each
	// stage's cap.
	for i, pkgs := range j.stages {
		if len(pkgs) == 0 {
			continue
		}
		want := map[string][]string{}
		for _, p := range pkgs {
			want[p] = j.names[p]
		}
		start := time.Now()
		if failed, timedOut := j.test(j.bins, 0, 10*time.Minute, want); len(failed) > 0 || timedOut {
			return fmt.Errorf("unmutated tests fail: %v", failed)
		}
		j.limits[i] = max(5*time.Since(start), time.Minute)
	}
	fmt.Fprintf(w, "# mutants of %s: go run ./tools/mutate %s\n", short(j.target, j.module), dir)
	fmt.Fprintf(w, "# operators: %s\n# test set: %s", strings.Join(opNames, ", "), short(j.target, j.module))
	if len(j.stages[1]) > 0 {
		fmt.Fprintf(w, "; when it kills with fewer than two tests, also:")
		for _, p := range j.stages[1] {
			fmt.Fprintf(w, " %s", short(p, j.module))
		}
	}
	fmt.Fprintf(w, "\n# position\toperator\tmutation\tverdict\tfailed tests\n")

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
				v, tests := j.verdict(i, m, p.srcs[m.file])
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
	_, err = fmt.Fprintln(w, tally(counts))
	return err
}

// overlay writes files (base name -> content) to dir, and beside them an
// overlay that puts them in the package's directory, and returns its path.
func (j *job) overlay(dir string, files map[string][]byte) (string, error) {
	replace := map[string]string{}
	var err error
	for name, src := range files {
		replace[filepath.Join(j.pkgDir, name)] = filepath.Join(dir, name)
		err = errors.Join(err, os.WriteFile(filepath.Join(dir, name), src, 0o644))
	}
	ov, _ := json.Marshal(map[string]map[string]string{"Replace": replace})
	path := filepath.Join(dir, "overlay.json")
	return path, errors.Join(err, os.WriteFile(path, ov, 0o644))
}

// tally is a recording's closing line: counts holds the number of mutants
// of each verdict.
func tally(counts map[string]int) string {
	killed, survived := counts["killed"]+counts["timed-out"], counts["survived"]
	return fmt.Sprintf("# %d mutants: %d killed, %d timed-out, %d survived, %d does-not-compile; score %d/%d = %.1f%%",
		killed+survived+counts["does-not-compile"], counts["killed"], counts["timed-out"], survived, counts["does-not-compile"],
		killed, killed+survived, 100*float64(killed)/float64(max(killed+survived, 1)))
}

// verdict tests mutant i, returning its verdict and the tests that failed
// on it. Each stage runs only the tests that execute the mutant, so a
// mutant that none executes is decided by whether it compiles. A mutant
// the schema holds runs in its binaries; any other is built into its own,
// from an overlay of its file, for the packages each stage runs.
func (j *job) verdict(i int, m mutant, src []byte) (string, []string) {
	if !j.compiles[i] {
		return "does-not-compile", nil
	}
	bins, overlay := j.bins, ""
	if !j.held[i] {
		dir, err := os.MkdirTemp(j.tmp, "m")
		if err == nil {
			defer os.RemoveAll(dir)
			overlay, err = j.overlay(dir, map[string][]byte{m.file: m.apply(src)})
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "mutate:", err)
			os.Exit(1)
		}
	}
	tests, whole := selected(j.blocks, m)
	var failed []string
	timedOut := false
	for s, pkgs := range j.stages {
		if len(failed) >= 2 || timedOut {
			break
		}
		want := map[string][]string{}
		for _, p := range pkgs {
			if whole {
				want[p] = j.names[p]
			}
		}
		for _, t := range tests {
			if p := j.tests[t][0]; (p == j.target) == (s == 0) {
				want[p] = append(want[p], j.tests[t][1])
			}
		}
		if overlay != "" {
			var pkgs []string
			for p := range want {
				pkgs = append(pkgs, p)
			}
			bins = build(filepath.Dir(overlay), overlay, pkgs)
		}
		f, t := j.test(bins, i+1, j.limits[s], want)
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
