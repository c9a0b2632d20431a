package lint

import (
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"quickdrop/internal/lint/dataflow"
)

// Package is one type-checked package of the analyzed module.
type Package struct {
	// Path is the package's import path.
	Path string
	// Dir is the directory holding the package's sources.
	Dir string
	// Files are the parsed non-test files (tests are out of scope for
	// every analyzer in the suite).
	Files []*ast.File
	// Types and Info are the go/types results for Files.
	Types *types.Package
	Info  *types.Info
}

// FuncInfo locates a function declaration inside the loaded program.
type FuncInfo struct {
	Decl *ast.FuncDecl
	Pkg  *Package
}

// Program is a fully loaded and type-checked module tree.
type Program struct {
	Fset *token.FileSet
	// Root is the directory the module was loaded from.
	Root string
	// Packages holds every package under Root, sorted by import path.
	Packages []*Package
	// Decls maps a function object to its declaration, across all
	// packages — the cross-package fact base for contract lookups.
	Decls map[*types.Func]FuncInfo

	// cgOnce/cg cache the program-wide static call graph (built lazily
	// by CallGraph in callgraph.go; analyzers share one build).
	cgOnce sync.Once
	cg     *dataflow.CallGraph[*types.Func]
}

// sharedFset is the file set shared by every load in the process, so
// that stdlib packages type-checked once by the source importer can be
// reused by all fixture programs and the main module alike.
var sharedFset = token.NewFileSet()

// stdImporter is the process-wide cache of stdlib packages, resolved
// from $GOROOT source (the gc export-data importer is not usable on a
// distribution without compiled package archives).
var stdImporter = struct {
	sync.Mutex
	imp types.Importer
}{}

func importStd(path string) (*types.Package, error) {
	stdImporter.Lock()
	defer stdImporter.Unlock()
	if stdImporter.imp == nil {
		stdImporter.imp = importer.ForCompiler(sharedFset, "source", nil)
	}
	return stdImporter.imp.Import(path)
}

// loader resolves module-internal imports by parsing and type-checking
// the corresponding directory, recursively, with cycle detection.
type loader struct {
	root    string
	modPath string
	pkgs    map[string]*Package
	loading map[string]bool
}

// Import implements types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if rel, ok := l.relOf(path); ok {
		pkg, err := l.loadDir(filepath.Join(l.root, rel), path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return importStd(path)
}

// relOf maps a module-internal import path to a root-relative
// directory.
func (l *loader) relOf(path string) (string, bool) {
	if path == l.modPath {
		return ".", true
	}
	if rest, ok := strings.CutPrefix(path, l.modPath+"/"); ok {
		return filepath.FromSlash(rest), true
	}
	return "", false
}

// loadDir parses and type-checks the non-test files of one directory.
func (l *loader) loadDir(dir, path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(sharedFset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	// Errors are gathered through conf.Error to report them all at once.
	tpkg, _ := conf.Check(path, sharedFset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, errors.Join(typeErrs...))
	}
	pkg := &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = pkg
	return pkg, nil
}

// LoadProgram parses and type-checks every package under root, whose
// import paths are rooted at modPath. Directories named testdata or
// vendor, and hidden or underscore-prefixed directories, are skipped,
// as are test files.
func LoadProgram(root, modPath string) (*Program, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	l := &loader{
		root:    root,
		modPath: modPath,
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}
	var dirs []string
	seen := make(map[string]bool)
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		// A directory's files and subdirectories interleave in the walk:
		// remember each package directory so it is loaded once.
		if dir := filepath.Dir(path); strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") && !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	prog := &Program{Fset: sharedFset, Root: root, Decls: make(map[*types.Func]FuncInfo)}
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		path := modPath
		if rel != "." {
			path = modPath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.loadDir(dir, path)
		if err != nil {
			return nil, err
		}
		prog.Packages = append(prog.Packages, pkg)
	}
	sort.Slice(prog.Packages, func(i, j int) bool { return prog.Packages[i].Path < prog.Packages[j].Path })

	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					prog.Decls[fn] = FuncInfo{Decl: fd, Pkg: pkg}
				}
			}
		}
	}
	return prog, nil
}

// FindModuleRoot walks upward from dir to the directory containing
// go.mod and returns that directory and the declared module path.
func FindModuleRoot(dir string) (root, modPath string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module directive", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}
