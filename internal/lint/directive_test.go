package lint

import (
	"os"
	"path/filepath"
	"testing"
)

// writeTree materializes a file tree under a fresh temp dir and returns
// its root.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestMalformedAllowIsReported(t *testing.T) {
	root := writeTree(t, map[string]string{
		"p/p.go": "package p\n\n//lint:allow wgbalance\nfunc f() {}\n",
	})
	prog, err := LoadProgram(root, fixtureModPath)
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(prog, nil)
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %v", len(diags), diags)
	}
	if diags[0].Rule != "directive" {
		t.Errorf("rule = %q, want directive", diags[0].Rule)
	}
}

func TestMalformedAllowIsNotSuppressible(t *testing.T) {
	// An allow for the "directive" pseudo-rule on the line above must
	// not silence the malformed-directive report.
	root := writeTree(t, map[string]string{
		"p/p.go": "package p\n\n//lint:allow directive trying to hush the checker\n//lint:allow wgbalance\nfunc f() {}\n",
	})
	prog, err := LoadProgram(root, fixtureModPath)
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(prog, nil)
	if len(diags) != 1 || diags[0].Rule != "directive" {
		t.Fatalf("got %v, want exactly one directive diagnostic", diags)
	}
}

func TestAllowOnLineAboveSuppresses(t *testing.T) {
	root := writeTree(t, map[string]string{
		"p/p.go": addInGo("\t\t//lint:allow wgbalance the probe owns its counter\n\t\twg.Add(1)\n"),
	})
	prog, err := LoadProgram(root, fixtureModPath)
	if err != nil {
		t.Fatal(err)
	}
	if diags := Run(prog, []*Analyzer{WGBalance}); len(diags) != 0 {
		t.Fatalf("suppressed finding still reported: %v", diags)
	}
}

func TestAllowWrongRuleDoesNotSuppress(t *testing.T) {
	root := writeTree(t, map[string]string{
		"p/p.go": addInGo("\t\twg.Add(1) //lint:allow lockorder wrong rule name\n"),
	})
	prog, err := LoadProgram(root, fixtureModPath)
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(prog, []*Analyzer{WGBalance})
	if len(diags) != 1 || diags[0].Rule != "wgbalance" {
		t.Fatalf("got %v, want one wgbalance diagnostic", diags)
	}
}

// addInGo is a file whose goroutine runs add, a wg.Add that races with
// the spawner's Wait: one wgbalance finding.
func addInGo(add string) string {
	return "package p\n\nimport \"sync\"\n\nfunc g() {\n\tvar wg sync.WaitGroup\n\tgo func() {\n" +
		add + "\t\twg.Done()\n\t}()\n\twg.Wait()\n}\n"
}
