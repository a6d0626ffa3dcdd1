package main

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

const fixture = `package p

const limit = 3

func F(x int) int {
	switch x {
	case 1:
		return 2
	}
	if x > limit {
		return x + 1
	}
	return x
}

func G() int { return limit - 1 }
`

// fixtureCover is what TestA (F(1)), TestB (F(5)) and TestC (F(0)) each
// execute of fixture, as `go test -cover` profiles them one at a time.
var fixtureCover = [3]string{`mode: set
fx/p.go:5.19,6.11 1 1
fx/p.go:7.9,8.11 1 1
fx/p.go:10.2,10.15 1 0
fx/p.go:10.15,12.3 1 0
fx/p.go:13.2,13.10 1 0
fx/p.go:16.14,16.34 1 0
`, `mode: set
fx/p.go:5.19,6.11 1 1
fx/p.go:7.9,8.11 1 0
fx/p.go:10.2,10.15 1 1
fx/p.go:10.15,12.3 1 1
fx/p.go:13.2,13.10 1 0
fx/p.go:16.14,16.34 1 0
`, `mode: set
fx/p.go:5.19,6.11 1 1
fx/p.go:7.9,8.11 1 0
fx/p.go:10.2,10.15 1 1
fx/p.go:10.15,12.3 1 0
fx/p.go:13.2,13.10 1 1
fx/p.go:16.14,16.34 1 0
`}

func TestSelectedTests(t *testing.T) {
	ms, err := enumerate(token.NewFileSet(), "p.go", []byte(fixture))
	if err != nil {
		t.Fatal(err)
	}
	cov := map[string][]int{}
	for i, p := range fixtureCover {
		cover(cov, i, []byte(p))
	}
	bs := blocks(cov, map[string][]byte{"p.go": []byte(fixture)})
	names := []string{"TestA", "TestB", "TestC"}
	got := map[string]string{} // "line:col op" -> selected tests, or "whole"
	for _, m := range ms {
		tests, whole := selected(bs, m)
		var sel []string
		for _, i := range tests {
			sel = append(sel, names[i])
		}
		if whole {
			sel = []string{"whole"}
		}
		got[fmt.Sprintf("%d:%d %s", m.line, m.col, opNames[m.op])] = strings.Join(sel, " ")
	}
	for _, c := range []struct{ why, mutant, want string }{
		{"package-level const: the whole stage", "3:15 inc", "whole"},
		{"case expression, in no block: every test that enters F", "7:7 dec", "TestA TestB TestC"},
		{"inside the condition's block", "10:7 flip", "TestB TestC"},
		{"inside the if body's block only", "11:12 swap", "TestB"},
		{"the if statement, from its block's first byte", "10:2 delete", "TestB TestC"},
		{"in a block that no test executes", "16:29 swap", ""},
	} {
		if g, ok := got[c.mutant]; !ok || g != c.want {
			t.Errorf("%s (%s): selected %q, want %q", c.why, c.mutant, g, c.want)
		}
	}
	// A mutant that ends where a block starts does not take its tests.
	b := bs["p.go"][slices.IndexFunc(bs["p.go"], func(b block) bool { return len(b.tests) == 1 && b.tests[0] == 1 })]
	if tests, whole := selected(bs, mutant{file: "p.go", off: b.off - 1, end: b.off, fn: [2]int{0, len(fixture)}}); whole || !slices.Equal(tests, []int{1, 2}) {
		t.Errorf("a mutant ending at the if body's first byte selects %v (whole %v), want the condition's tests [1 2]", tests, whole)
	}
}

// event is one line of a test2json stream.
func event(action, test, output string) string {
	return fmt.Sprintf(`{"Action":%q,"Test":%q,"Output":%q}`, action, test, output)
}

var three = []string{"TestA", "TestB", "TestC"}

func TestParse(t *testing.T) {
	for _, c := range []struct {
		why      string
		exitErr  bool
		events   []string
		failed   []string
		rest     []string
		died     string
		bare     bool
		timedOut bool
	}{
		{"the second test panics: the third runs again", true, []string{
			event("run", "TestA", ""),
			event("pass", "TestA/sub", ""),
			event("pass", "TestA", ""),
			event("run", "TestB", ""),
			event("output", "TestB", "panic: index out of range [recovered]\n"),
			event("fail", "TestB", ""),
		}, []string{"TestB"}, []string{"TestC"}, "", false, false},
		{"the second test dies of a fatal error, which reports no failure: it ended the binary and the third runs again", true, []string{
			event("run", "TestA", ""),
			event("pass", "TestA", ""),
			event("run", "TestB", ""),
			event("output", "TestB", "fatal error: runtime: out of memory\n"),
		}, nil, []string{"TestC"}, "TestB", false, false},
		{"a cap hit: nothing runs again", true, []string{
			event("run", "TestA", ""),
			event("pass", "TestA", ""),
			event("run", "TestB", ""),
			event("output", "TestB", "panic: test timed out after 1m0s\n"),
		}, nil, nil, "", false, true},
		{"a failure outside any test: the package fails, nothing runs again", true, []string{
			event("run", "TestA", ""),
			event("pass", "TestA", ""),
			event("output", "", "audit: broken chain\n"),
		}, nil, nil, "", true, false},
		{"a subtest fails: its top-level test fails, the rest pass", true, []string{
			event("run", "TestA", ""),
			event("run", "TestA/sub", ""),
			event("fail", "TestA/sub", ""),
			event("fail", "TestA", ""),
			event("run", "TestB", ""),
			event("pass", "TestB", ""),
			event("run", "TestC", ""),
			event("skip", "TestC", ""),
		}, []string{"TestA"}, nil, "", false, false},
	} {
		failed, rest, died, bare, timedOut := parse([]byte(strings.Join(c.events, "\n")), c.exitErr, three)
		if !slices.Equal(failed, c.failed) || !slices.Equal(rest, c.rest) || died != c.died || bare != c.bare || timedOut != c.timedOut {
			t.Errorf("%s: failed %v, rest %v, died %q, bare %v, timed out %v; want %v, %v, %q, %v, %v",
				c.why, failed, rest, died, bare, timedOut, c.failed, c.rest, c.died, c.bare, c.timedOut)
		}
	}
}

// A goroutine that TestA leaves running panics while TestB runs: the
// binary dies under TestB, which passes alone, so the package is charged,
// not TestB. A death that TestB repeats alone is TestB's.
func TestRunAllChargesDeathsThatRepeatAlone(t *testing.T) {
	died := []string{
		event("run", "TestA", ""),
		event("pass", "TestA", ""),
		event("run", "TestB", ""),
		event("output", "TestB", "panic: send on closed channel\n"),
	}
	for _, c := range []struct {
		why       string
		aloneDies bool
		want      []string
	}{
		{"TestB passes alone: the package", false, []string{"p"}},
		{"TestB dies alone too: TestB", true, []string{"p.TestB"}},
	} {
		var runs []string
		failed, timedOut := runAll("p", three, func(tests []string) ([]byte, bool, bool) {
			runs = append(runs, strings.Join(tests, " "))
			switch {
			case len(runs) == 1:
				return []byte(strings.Join(died, "\n")), true, false
			case tests[0] == "TestB":
				if c.aloneDies {
					return []byte(strings.Join(died[2:], "\n")), true, false
				}
				return []byte(event("run", "TestB", "") + "\n" + event("pass", "TestB", "")), false, false
			}
			return []byte(event("run", "TestC", "") + "\n" + event("pass", "TestC", "")), false, false
		})
		wantRuns := []string{"TestA TestB TestC", "TestB", "TestC"}
		if !slices.Equal(failed, c.want) || timedOut || !slices.Equal(runs, wantRuns) {
			t.Errorf("%s: failed %v, timed out %v, runs %q; want %v, false, %q", c.why, failed, timedOut, runs, c.want, wantRuns)
		}
	}
}

// position is a verdict line's first field, file:line:col.
var position = regexp.MustCompile(`^\w+\.go:\d+:\d+$`)

// Every recorded file is a whole run of the committed harness over a
// package's full test set: its header names the flag-free command, each
// verdict line has its five fields (the failed tests, empty unless killed,
// are trimmed), and the closing line is the tally of the verdicts above it.
func TestRecordings(t *testing.T) {
	files, err := filepath.Glob("testdata/*.txt")
	if err != nil || len(files) == 0 {
		t.Fatalf("no recordings: %v", err)
	}
	for _, file := range files {
		b, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
		pkg := strings.TrimSuffix(filepath.Base(file), ".txt")
		if want := "# mutants of " + pkg + ": go run ./tools/mutate ./internal/" + pkg; lines[0] != want {
			t.Errorf("%s: header %q, want %q", file, lines[0], want)
		}
		counts := map[string]int{}
		for i, l := range lines[:len(lines)-1] {
			if strings.HasPrefix(l, "# sample:") {
				t.Errorf("%s:%d: a sampled run", file, i+1)
			}
			if strings.HasPrefix(l, "#") {
				continue
			}
			f := strings.Split(l, "\t")
			if len(f) == 4 {
				f = append(f, "")
			}
			if len(f) != 5 {
				t.Errorf("%s:%d: %d fields, want 5: %q", file, i+1, len(f), l)
				continue
			}
			ok := position.MatchString(f[0]) && slices.Contains(opNames, f[1]) && f[2] != ""
			switch f[3] {
			case "killed":
				ok = ok && f[4] != ""
			case "survived", "timed-out", "does-not-compile":
				ok = ok && f[4] == ""
			default:
				ok = false
			}
			if !ok {
				t.Errorf("%s:%d: not a verdict line: %q", file, i+1, l)
			}
			counts[f[3]]++
		}
		if got, want := lines[len(lines)-1], tally(counts); got != want {
			t.Errorf("%s: closing line %q, want the tally %q", file, got, want)
		}
	}
}
