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
	runFlag  = regexp.MustCompile(`go test .*-run '([^']*)'`)
	testFunc = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark|Example)\w*)\(`)
)

// ciRunMisses returns each `-run` alternative (before any '/') of each
// `go test` line of workflow that matches no Test, Fuzz, Benchmark or
// Example function in the package directories the line names, as
// "alternative in dirs". A name that matches nothing passes `go test`
// with "no tests to run", so a renamed test would silently drop out of
// CI.
func ciRunMisses(workflow string) ([]string, error) {
	var misses []string
	for _, line := range strings.Split(workflow, "\n") {
		m := runFlag.FindStringSubmatch(line)
		if m == nil {
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
		for _, alt := range strings.Split(m[1], "|") {
			alt, _, _ = strings.Cut(alt, "/")
			re, err := regexp.Compile(alt)
			if err != nil {
				return nil, err
			}
			if alt != "^$" && !slices.ContainsFunc(names, re.MatchString) {
				misses = append(misses, alt+" in "+strings.Join(dirs, " "))
			}
		}
	}
	return misses, nil
}

// TestCIRunPatternsMatchTests: every test the CI workflow runs by name
// exists, and a misspelt name is caught.
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
			[]string{"TestCIRunPatternMatchTests in ."}},
	} {
		got, err := ciRunMisses(tc.workflow)
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: -run names matching no test %q (err %v), want %q", tc.name, got, err, tc.want)
		}
	}
}
