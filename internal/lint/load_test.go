package lint

import (
	"path/filepath"
	"slices"
	"testing"
)

func TestFindModuleRoot(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod":   "module example.com/m\n\ngo 1.22\n",
		"a/b/c.go": "package b\n",
	})
	got, mod, err := FindModuleRoot(filepath.Join(root, "a", "b"))
	if err != nil {
		t.Fatal(err)
	}
	if got != root {
		t.Errorf("root = %q, want %q", got, root)
	}
	if mod != "example.com/m" {
		t.Errorf("module = %q, want example.com/m", mod)
	}
}

func TestLoadProgramReportsTypeErrors(t *testing.T) {
	root := writeTree(t, map[string]string{
		"p/p.go": "package p\n\nfunc f() { undefined() }\n",
	})
	if _, err := LoadProgram(root, fixtureModPath); err == nil {
		t.Fatal("loading an ill-typed tree succeeded, want error")
	}
}

func TestLoadProgramSkipsTestsAndTestdata(t *testing.T) {
	root := writeTree(t, map[string]string{
		"p/a.go":              "package p\n",
		"p/m/m.go":            "package m\n",
		"p/z.go":              "package p\n",
		"p/p_test.go":         "package p\n\nthis is not Go\n",
		"p/testdata/bad.go":   "also not Go\n",
		"p/_ignored/skip.go":  "still not Go\n",
		".hidden/whatever.go": "not Go either\n",
	})
	prog, err := LoadProgram(root, fixtureModPath)
	if err != nil {
		t.Fatal(err)
	}
	// p's files sit on both sides of its subdirectory m in the walk; p is
	// still loaded once.
	var paths []string
	for _, pkg := range prog.Packages {
		paths = append(paths, pkg.Path)
	}
	if want := []string{fixtureModPath + "/p", fixtureModPath + "/p/m"}; !slices.Equal(paths, want) {
		t.Fatalf("loaded %v, want %v", paths, want)
	}
}
