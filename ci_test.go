package tdmnoc_test

import (
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var (
	nameFlag = regexp.MustCompile(`-(run|bench|fuzz) ('[^']*'|\S+)`)
	testFunc = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark|Example)\w*)\(`)
	// flagKinds are the function prefixes each flag selects from.
	flagKinds = map[string][]string{"run": {"Test", "Fuzz", "Example"}, "bench": {"Benchmark"}, "fuzz": {"Fuzz"}}
)

// ciRunMisses returns each `-run`, `-bench` and `-fuzz` alternative
// (before any '/') of each `go test` line of workflow that matches no
// function of the flag's kind (Test, Fuzz or Example for -run, Benchmark
// for -bench, Fuzz for -fuzz) in the package directories the line
// names, as "alternative in dirs". A -run or -bench name that matches
// nothing passes `go test` with "no tests to run", so a renamed test or
// benchmark would silently drop out of CI.
func ciRunMisses(workflow string) ([]string, error) {
	var misses []string
	for _, line := range strings.Split(workflow, "\n") {
		if !strings.Contains(line, "go test ") {
			continue
		}
		var dirs, names []string
		for _, dir := range strings.Fields(line) {
			if dir != "." && !strings.HasPrefix(dir, "./") {
				continue
			}
			dirs = append(dirs, dir)
			files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
			if err != nil {
				return nil, err
			}
			for _, f := range files {
				b, err := os.ReadFile(f)
				if err != nil {
					return nil, err
				}
				for _, fm := range testFunc.FindAllSubmatch(b, -1) {
					names = append(names, string(fm[1]))
				}
			}
		}
		for _, m := range nameFlag.FindAllStringSubmatch(line, -1) {
			kinds := flagKinds[m[1]]
			for _, alt := range strings.Split(strings.Trim(m[2], "'"), "|") {
				alt, _, _ = strings.Cut(alt, "/")
				re, err := regexp.Compile(alt)
				if err != nil {
					return nil, err
				}
				match := func(name string) bool {
					return re.MatchString(name) && slices.ContainsFunc(kinds, func(k string) bool { return strings.HasPrefix(name, k) })
				}
				if alt != "^$" && !slices.ContainsFunc(names, match) {
					misses = append(misses, "-"+m[1]+" "+alt+" in "+strings.Join(dirs, " "))
				}
			}
		}
	}
	return misses, nil
}

// TestCIRunPatternsMatchTests: every test, benchmark and fuzz target
// the CI workflow runs by name exists, and a misspelt name is caught.
func TestCIRunPatternsMatchTests(t *testing.T) {
	ci, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, workflow string
		want           []string
	}{
		{"ci.yml", string(ci), nil},
		{"misspelt", "run: go test -race -run 'TestCIRunPatternsMatchTests|TestCIRunPatternMatchTests/x|^$' -v .",
			[]string{"-run TestCIRunPatternMatchTests in ."}},
		{"misspelt bench", "run: go test -run '^$' -bench 'BenchmarkEngine|BenchmarkEngin$' -benchmem -benchtime 2000x .",
			[]string{"-bench BenchmarkEngin$ in ."}},
		{"misspelt fuzz", "run: go test -run '^$' -fuzz FuzzConfigHsh -fuzztime 20s ./hsnoc",
			[]string{"-fuzz FuzzConfigHsh in ./hsnoc"}},
		{"wrong kind", "run: go test -run '^$' -bench 'FuzzConfigHash' ./hsnoc",
			[]string{"-bench FuzzConfigHash in ./hsnoc"}},
	} {
		got, err := ciRunMisses(tc.workflow)
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: names matching no function %q (err %v), want %q", tc.name, got, err, tc.want)
		}
	}
}
