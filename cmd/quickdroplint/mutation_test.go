package main

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// treeMutation seeds one bug into a copy of the module: the first
// occurrence of old after anchor in file is replaced by new, and rule
// must then report want in that file. treeMutations are the rows of
// DESIGN.md's rule × mutation audit that a rule owns: the bugs that
// neither go vet nor a test catches.
type treeMutation struct {
	rule, file, anchor, old, new, want string
}

var treeMutations = []treeMutation{
	// WA, seeded in shardRows: W1 below takes runPooled's worker.
	{
		rule: "wgbalance", file: "internal/tensor/parallel.go",
		anchor: "func shardRows(", old: "\t\t\tdefer wg.Done()\n\t\t\tfn(lo, hi)\n",
		new:  "\t\t\tif lo >= hi {\n\t\t\t\treturn\n\t\t\t}\n\t\t\tfn(lo, hi)\n\t\t\twg.Done()\n",
		want: "wg.Done is skipped on some path out of this function",
	},
	{
		rule: "wgbalance", file: "internal/fl/concurrent.go",
		anchor: "func runPooled(", old: "\t\twg.Add(1)\n\t\tgo func() {\n\t\t\tdefer wg.Done()\n", new: "\t\tgo func() {\n\t\t\twg.Add(1)\n\t\t\tdefer wg.Done()\n",
		want: "wg.Add inside the spawned goroutine",
	},
	// One lock-order cycle, seeded in two places: submit holds the ticket
	// index across Enqueue, and views takes the queue's lock before it.
	{
		rule: "lockorder", file: "internal/serve/serve.go",
		anchor: "func (s *Server) submit(",
		old:    "\tif err := s.q.Enqueue(t); err != nil {\n\t\ts.metrics.failed.Inc()\n\t\tt.fail(err, nil)\n\t\treturn t, err\n\t}\n\ts.tmu.Lock()\n",
		new:    "\ts.tmu.Lock()\n\tif err := s.q.Enqueue(t); err != nil {\n\t\ts.tmu.Unlock()\n\t\ts.metrics.failed.Inc()\n\t\tt.fail(err, nil)\n\t\treturn t, err\n\t}\n",
		want:   "serve.Queue.mu is acquired while serve.Server.tmu is held",
	},
	{
		rule: "lockorder", file: "internal/serve/serve.go",
		anchor: "func (s *Server) views(", old: "\ts.tmu.Lock()\n", new: "\ts.q.mu.Lock()\n\tdefer s.q.mu.Unlock()\n\ts.tmu.Lock()\n",
		want: "serve.Server.tmu is acquired while serve.Queue.mu is held",
	},
}

// TestPathBalanceRulesCatchTreeMutations runs every rule over a copy
// of this module: clean as it stands, then with all treeMutations
// seeded, each of which its rule (and nothing else) must report.
func TestPathBalanceRulesCatchTreeMutations(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module twice")
	}
	root := copyModule(t, filepath.Join("..", ".."))
	chdir(t, root)
	var rules []string
	for _, m := range treeMutations {
		if !slices.Contains(rules, m.rule) {
			rules = append(rules, m.rule)
		}
	}
	lintTree := func() []string {
		t.Helper()
		var out, errb bytes.Buffer
		if code := run([]string{"-rules", strings.Join(rules, ","), "./..."}, &out, &errb); code == 2 {
			t.Fatalf("quickdroplint failed: %s", errb.String())
		}
		return strings.Split(strings.TrimSpace(out.String()), "\n")
	}

	for _, line := range lintTree() {
		if line != "" {
			t.Errorf("unmutated tree: unexpected finding %s", line)
		}
	}

	for _, m := range treeMutations {
		src, err := os.ReadFile(m.file)
		if err != nil {
			t.Fatal(err)
		}
		text := string(src)
		at := strings.Index(text, m.anchor)
		i := strings.Index(text[max(at, 0):], m.old)
		if at < 0 || i < 0 {
			t.Fatalf("%s: mutation site %q after %q not found; update the mutation table", m.file, m.old, m.anchor)
		}
		i += at
		text = text[:i] + m.new + text[i+len(m.old):]
		if err := os.WriteFile(m.file, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	found := make([]bool, len(treeMutations))
	for _, line := range lintTree() {
		claimed := false
		for i, m := range treeMutations {
			if !found[i] && strings.HasPrefix(line, m.file+":") &&
				strings.Contains(line, ": "+m.rule+": ") && strings.Contains(line, m.want) {
				found[i], claimed = true, true
				break
			}
		}
		if !claimed {
			t.Errorf("mutated tree: unexpected finding %s", line)
		}
	}
	for i, m := range treeMutations {
		if !found[i] {
			t.Errorf("%s: seeded bug in %s not reported (want %q)", m.rule, m.file, m.want)
		}
	}
}

// copyModule copies the module's go.mod and non-test Go sources, which
// is all the linter reads, into a temporary directory.
func copyModule(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if rel != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		if rel != "go.mod" && (!strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go")) {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatalf("copying the module: %v", err)
	}
	return dst
}
