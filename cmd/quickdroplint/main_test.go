package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// chdir switches the working directory for one test and restores it.
func chdir(t *testing.T, dir string) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	})
}

// fixtureDir is a golden fixture tree with findings and its own go.mod.
var fixtureDir = filepath.Join("..", "..", "internal", "lint", "testdata", "src", "wgbalance")

func TestRunFlagsNegativeFixture(t *testing.T) {
	// The wgbalance golden fixture doubles as the command's negative
	// fixture: it carries its own go.mod, so quickdroplint treats it as
	// a module and must exit 1 with findings.
	chdir(t, fixtureDir)
	var out, errb bytes.Buffer
	code := run([]string{"-rules", "wgbalance", "./..."}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr: %s)", code, errb.String())
	}
	if !strings.Contains(out.String(), "wgbalance: ") {
		t.Errorf("output has no wgbalance findings:\n%s", out.String())
	}
}

func TestRunPatternFiltersFindings(t *testing.T) {
	chdir(t, fixtureDir)
	var out, errb bytes.Buffer
	if code := run([]string{"./nonexistent/..."}, &out, &errb); code != 0 {
		t.Fatalf("exit code = %d, want 0 for a pattern matching nothing", code)
	}
	if out.Len() != 0 {
		t.Errorf("unexpected output: %s", out.String())
	}
}

func TestRunGithubFormat(t *testing.T) {
	chdir(t, fixtureDir)
	var out, errb bytes.Buffer
	code := run([]string{"-rules", "wgbalance", "-format", "github", "./..."}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr: %s)", code, errb.String())
	}
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		if !strings.HasPrefix(line, "::error file=") || !strings.Contains(line, ",line=") || !strings.Contains(line, "::wgbalance: ") {
			t.Errorf("malformed github annotation: %q", line)
		}
	}
}

func TestRunUnknownFormat(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-format", "junit"}, &out, &errb); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
}

func TestRunList(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("exit code = %d, want 0", code)
	}
	// Exactly the rules that own a row of DESIGN.md's rule × mutation
	// audit: a bug that only they catch.
	var got []string
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		got = append(got, strings.Fields(line)[0])
	}
	want := []string{"lockorder", "wgbalance"}
	if !slices.Equal(got, want) {
		t.Errorf("-list rules = %v, want %v:\n%s", got, want, out.String())
	}
}

func TestRunUnknownRule(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-rules", "bogus"}, &out, &errb); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
}

func TestMatchPattern(t *testing.T) {
	cases := []struct {
		file, pattern string
		want          bool
	}{
		{"internal/fl/fedavg.go", "./...", true},
		{"internal/fl/fedavg.go", "./internal/...", true},
		{"internal/fl/fedavg.go", "./internal/fl", true},
		{"internal/fl/fedavg.go", "./internal/fl/...", true},
		{"internal/fl/fedavg.go", "./internal/tensor", false},
		{"internal/fl/fedavg.go", "./internal/tensor/...", false},
		{"main.go", ".", true},
		{"main.go", "./internal/...", false},
	}
	for _, c := range cases {
		if got := matchPattern(c.file, c.pattern); got != c.want {
			t.Errorf("matchPattern(%q, %q) = %v, want %v", c.file, c.pattern, got, c.want)
		}
	}
}
