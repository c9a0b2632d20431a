package quickdrop_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// checkedDocs are the documents that describe the code as it is.
// CHANGES.md and ROADMAP.md are history and plans, PAPER*.md and
// SNIPPETS.md describe code outside this module, and bench/README.md
// belongs to the separate bench module.
var checkedDocs = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"}

// TestDocsNameLiveCode fails when a document names code that is gone,
// or when code or a document cites a DESIGN.md section that is gone.
func TestDocsNameLiveCode(t *testing.T) {
	t.Run("names", testNamesResolve)
	t.Run("sections", testSectionReferencesResolve)
}

// testNamesResolve scans every inline code span of the checked
// documents for:
//
//   - pkg.Name, where pkg is one of the module's package names: a
//     package-level declaration of pkg, or a method or field that
//     exactly one type of pkg declares;
//   - pkg.Type.Member and Type.Member (Type capitalized): a method,
//     struct field or interface method of that type;
//   - a bare TestX, BenchmarkX or ExampleX: a function;
//   - a path ending in .go or .sh: a file of the repository.
//
// Names of other packages (sync.WaitGroup, math.Float64bits),
// lower-case receivers (model.Arena) and bench metric names
// (tensor.matmul_us) are not checked.
func testNamesResolve(t *testing.T) {
	mod := loadModule(t)
	checked := 0
	for _, doc := range checkedDocs {
		for _, span := range codeSpans(t, doc) {
			for _, problem := range mod.check(span, &checked) {
				t.Errorf("%s: `%s`: %s", doc, span, problem)
			}
		}
	}
	t.Logf("%d names", checked)
	if checked < 100 {
		t.Fatalf("only %d names checked: the span scan is broken", checked)
	}
}

// testSectionReferencesResolve checks the module's Go files, scripts,
// CI file, Makefile, README.md and EXPERIMENTS.md. A section name
// quoted after DESIGN.md (also after "DESIGN.md," or "DESIGN.md's",
// and further names joined by "and", "or" or commas) must be the start
// of a DESIGN.md heading or of a bold paragraph lead; a quote followed
// by "in OTHER.md" names a section of that other document. "DESIGN.md
// decision N" must be a numbered key design decision.
func testSectionReferencesResolve(t *testing.T) {
	design := readFile(t, "DESIGN.md")
	var leads []string
	for _, line := range strings.Split(design, "\n") {
		if m := headingOrLead.FindStringSubmatch(line); m != nil {
			leads = append(leads, strings.TrimRight(m[1], " *"))
		}
	}
	_, decisions, _ := strings.Cut(design, "## Key design decisions")
	decisions, _, _ = strings.Cut(decisions, "\n## ")

	files := []string{"README.md", "EXPERIMENTS.md", ".github/workflows/ci.yml", "Makefile"}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if skipDir(path, d) || path == "bench" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || strings.HasSuffix(path, ".sh") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	refs := 0
	for _, f := range files {
		text := lineBreak.ReplaceAllString(readFile(t, f), " ")
		for _, loc := range sectionRef.FindAllStringSubmatchIndex(text, -1) {
			names := quoted.FindAllStringSubmatch(text[loc[2]:loc[3]], -1)
			if otherDoc.MatchString(text[loc[1]:]) {
				names = names[:len(names)-1]
			}
			for _, q := range names {
				refs++
				if !hasLead(leads, q[1]) {
					t.Errorf("%s cites DESIGN.md %q, which starts no heading or bold lead", f, q[1])
				}
			}
		}
		for _, m := range decisionRef.FindAllStringSubmatch(text, -1) {
			refs++
			if !strings.Contains(decisions, "\n"+m[1]+". **") {
				t.Errorf("%s cites DESIGN.md decision %s, which is not a key design decision", f, m[1])
			}
		}
	}
	t.Logf("%d references", refs)
	if refs < 10 {
		t.Fatalf("only %d DESIGN.md references found: the scan is broken", refs)
	}
}

var (
	// lineBreak joins wrapped comment, script and markdown lines.
	lineBreak     = regexp.MustCompile(`\s*\n\s*(?://|#)?\s*`)
	sectionRef    = regexp.MustCompile(`DESIGN\.md(?:'s|,)?\s+(\\?"[^"\\]+\\?"(?:\s*(?:,|and|or)\s*\\?"[^"\\]+\\?")*)`)
	quoted        = regexp.MustCompile(`"([^"\\]+)\\?"`)
	otherDoc      = regexp.MustCompile(`^\s+in\s+[A-Z]+\.md`)
	decisionRef   = regexp.MustCompile(`DESIGN\.md,?\s+decisions?\s+(\d+)`)
	headingOrLead = regexp.MustCompile(`^(?:#+\s+|\s*(?:[-*]\s+|\d+\.\s+)?\*\*)(.+)`)
)

func hasLead(leads []string, name string) bool {
	for _, l := range leads {
		if strings.HasPrefix(l, name) {
			return true
		}
	}
	return false
}

// module indexes the declarations of every package of the module.
type module struct {
	pkgs  map[string]*pkgDecls // by package name
	funcs map[string]bool      // every function name, test files included
	files []string             // every file path, slash-separated
}

type pkgDecls struct {
	top   map[string]bool            // package-level names
	types map[string]map[string]bool // type → methods and fields
}

func skipDir(path string, d fs.DirEntry) bool {
	name := d.Name()
	return path != "." && (strings.HasPrefix(name, ".") || name == "testdata" || name == "out")
}

func loadModule(t *testing.T) *module {
	t.Helper()
	m := &module{pkgs: map[string]*pkgDecls{}, funcs: map[string]bool{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if skipDir(path, d) {
				return filepath.SkipDir
			}
			return nil
		}
		m.files = append(m.files, filepath.ToSlash(path))
		// bench/ is a separate module; its files exist but its names
		// are not the module's.
		if !strings.HasSuffix(path, ".go") || strings.HasPrefix(filepath.ToSlash(path), "bench/") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		m.add(f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func (m *module) add(f *ast.File) {
	name := strings.TrimSuffix(f.Name.Name, "_test")
	p := m.pkgs[name]
	if p == nil {
		p = &pkgDecls{top: map[string]bool{}, types: map[string]map[string]bool{}}
		m.pkgs[name] = p
	}
	membersOf := func(typ string) map[string]bool {
		if p.types[typ] == nil {
			p.types[typ] = map[string]bool{}
		}
		return p.types[typ]
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			m.funcs[d.Name.Name] = true
			if d.Recv == nil {
				p.top[d.Name.Name] = true
				continue
			}
			membersOf(receiverType(d.Recv.List[0].Type))[d.Name.Name] = true
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range s.Names {
						p.top[n.Name] = true
					}
				case *ast.TypeSpec:
					p.top[s.Name.Name] = true
					members := membersOf(s.Name.Name)
					var fields *ast.FieldList
					switch tt := s.Type.(type) {
					case *ast.StructType:
						fields = tt.Fields
					case *ast.InterfaceType:
						fields = tt.Methods
					}
					if fields == nil {
						continue
					}
					for _, fld := range fields.List {
						for _, n := range fld.Names {
							members[n.Name] = true
						}
						if len(fld.Names) == 0 {
							members[receiverType(fld.Type)] = true
						}
					}
				}
			}
		}
	}
}

// receiverType names the type of a receiver or embedded field: T, *T,
// T[P], pkg.T.
func receiverType(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return receiverType(x.X)
	case *ast.IndexExpr:
		return receiverType(x.X)
	case *ast.IndexListExpr:
		return receiverType(x.X)
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.Ident:
		return x.Name
	}
	return ""
}

var (
	pathName  = regexp.MustCompile(`[\w./-]*\w\.(?:go|sh)\b`)
	otherFile = regexp.MustCompile(`[\w./-]*\w\.(?:md|json|jsonl|txt|yml|yaml)\b`)
	chain     = regexp.MustCompile(`[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+`)
	// benchMetric matches the layer half of a bench metric name.
	benchMetric = regexp.MustCompile(`^[a-z0-9]+_[a-z0-9_]+$`)
	testName    = regexp.MustCompile(`\b(?:Test|Benchmark|Example)(?:[A-Z0-9_]\w*)?\b`)
)

// check returns what does not resolve in one code span, and counts the
// names it checked.
func (m *module) check(span string, checked *int) []string {
	var problems []string
	for _, p := range pathName.FindAllString(span, -1) {
		*checked++
		if !m.fileExists(p) {
			problems = append(problems, "no file "+p)
		}
	}
	span = pathName.ReplaceAllString(span, " ")
	span = otherFile.ReplaceAllString(span, " ")
	for _, loc := range chain.FindAllStringIndex(span, -1) {
		if loc[0] > 0 && strings.ContainsRune("./)]", rune(span[loc[0]-1])) {
			continue
		}
		parts := strings.Split(span[loc[0]:loc[1]], ".")
		if problem, ok := m.resolve(parts); ok {
			*checked++
			if problem != "" {
				problems = append(problems, problem)
			}
		}
	}
	for _, name := range testName.FindAllString(span, -1) {
		if name == "Test" || name == "Benchmark" {
			continue
		}
		*checked++
		if !m.funcs[name] {
			problems = append(problems, "no function "+name)
		}
	}
	return problems
}

// resolve checks one dotted name. ok is false for a name it does not
// check.
func (m *module) resolve(parts []string) (problem string, ok bool) {
	name := strings.Join(parts, ".")
	if p := m.pkgs[parts[0]]; p != nil && parts[0] != "main" {
		if benchMetric.MatchString(parts[1]) {
			return "", false
		}
		if len(parts) >= 3 && p.types[parts[1]] != nil {
			if !p.types[parts[1]][parts[2]] {
				return "no method or field " + name, true
			}
			return "", true
		}
		if p.top[parts[1]] {
			return "", true
		}
		var owners []string
		for typ, members := range p.types {
			if members[parts[1]] {
				owners = append(owners, typ)
			}
		}
		if len(owners) == 1 {
			return "", true
		}
		sort.Strings(owners)
		if len(owners) > 1 {
			return "ambiguous " + name + ": a member of " + strings.Join(owners, ", "), true
		}
		return "no declaration " + parts[0] + "." + parts[1], true
	}
	if first := parts[0][0]; first < 'A' || first > 'Z' {
		return "", false
	}
	for _, p := range m.pkgs {
		if p.types[parts[0]][parts[1]] {
			return "", true
		}
	}
	return "no type with member " + parts[0] + "." + parts[1], true
}

func (m *module) fileExists(p string) bool {
	p = strings.TrimPrefix(p, "./")
	for _, f := range m.files {
		if f == p || strings.HasSuffix(f, "/"+p) {
			return true
		}
	}
	return false
}

// codeSpans returns the inline code spans of a markdown file, outside
// fenced blocks, with line breaks inside a span read as spaces.
func codeSpans(t *testing.T, path string) []string {
	t.Helper()
	var prose []string
	fenced := false
	for _, line := range strings.Split(readFile(t, path), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if !fenced {
			prose = append(prose, line)
		}
	}
	var spans []string
	for _, m := range inlineCode.FindAllStringSubmatch(strings.Join(prose, "\n"), -1) {
		spans = append(spans, strings.ReplaceAll(m[1], "\n", " "))
	}
	return spans
}

var inlineCode = regexp.MustCompile("`([^`]+)`")

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
