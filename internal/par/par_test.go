package par

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestWaitWaitsForEveryBody runs bodies that return at once, bodies
// that leave by runtime.Goexit (as t.FailNow does in a goroutine) and
// bodies that block until the test releases them, then waits on the
// group. Wait must return, and only after every body has finished. At
// GOMAXPROCS 1 no body runs before Wait blocks, so a Go that counted a
// body inside its goroutine lets Wait return at once, and a Go whose
// Done is not deferred never returns from Wait once a body calls
// Goexit.
func TestWaitWaitsForEveryBody(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const early, exits, blocked = 3, 2, 3
	const total = early + exits + blocked
	var finished atomic.Int32
	started := make(chan struct{}, blocked)
	release := make(chan struct{})
	go func() {
		for range blocked {
			<-started
		}
		close(release)
	}()

	waited := make(chan int32, 1)
	go func() {
		var g Group
		for range early {
			g.Go(func() { finished.Add(1) })
		}
		for range exits {
			g.Go(func() {
				defer finished.Add(1)
				runtime.Goexit()
			})
		}
		for range blocked {
			g.Go(func() {
				defer finished.Add(1)
				started <- struct{}{}
				<-release
			})
		}
		g.Wait()
		waited <- finished.Load()
	}()

	select {
	case n := <-waited:
		if n != total {
			t.Fatalf("Wait returned with %d of %d bodies finished: Group.Go must count a body before its goroutine starts", n, total)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("Wait has not returned 2s after the bodies were started (%d of %d finished): Group.Go skips its Done on some way out of a body", finished.Load(), total)
	}
}

// TestOnlyParNamesWaitGroup scans the module's non-test Go files and
// requires that internal/par's is the only one naming sync.WaitGroup,
// so every fan-out goes through Group and its Add and Done cannot be
// misplaced at a call site.
func TestOnlyParNamesWaitGroup(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	var naming []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path == root {
				return nil
			}
			if name == "testdata" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			// A nested module (bench/) is not this module.
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if namesWaitGroup(f) {
			rel, err := filepath.Rel(root, path)
			if err != nil {
				return err
			}
			naming = append(naming, filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"internal/par/par.go"}; !slices.Equal(naming, want) {
		t.Errorf("files naming sync.WaitGroup: %v, want only %v: start goroutines with par.Group.Go and wait with Group.Wait", naming, want)
	}
}

// namesWaitGroup reports whether f refers to sync.WaitGroup through its
// import of sync, under whatever name the file gives that import.
func namesWaitGroup(f *ast.File) bool {
	local := ""
	for _, imp := range f.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); path == "sync" {
			local = "sync"
			if imp.Name != nil {
				local = imp.Name.Name
			}
		}
	}
	if local == "" {
		return false
	}
	found := false
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "WaitGroup" {
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
				found = true
			}
		}
		return !found
	})
	return found
}
