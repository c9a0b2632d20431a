package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// allowPrefix introduces a reasoned suppression:
//
//	//lint:allow <rule> <reason...>
//
// The directive silences diagnostics of <rule> on its own line and on
// the line immediately below it (so it can sit inline or on the line
// above the finding). A directive without both a rule and a reason is
// itself reported under the "directive" rule.
const allowPrefix = "//lint:allow"

// directiveRule is the pseudo-rule used for malformed directives; it is
// not suppressible.
const directiveRule = "directive"

// allowKey identifies one (file, line) a rule is allowed on.
type allowKey struct {
	file string
	line int
	rule string
}

// directives indexes every suppression directive of a program.
type directives struct {
	allows    map[allowKey]bool
	malformed []Diagnostic
}

// collectDirectives scans all comments of the program.
func collectDirectives(prog *Program) *directives {
	d := &directives{allows: make(map[allowKey]bool)}
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					d.addComment(prog.Fset, c)
				}
			}
		}
	}
	return d
}

func (d *directives) addComment(fset *token.FileSet, c *ast.Comment) {
	rest, ok := strings.CutPrefix(c.Text, allowPrefix)
	if !ok {
		return
	}
	pos := fset.Position(c.Slash)
	fields := strings.Fields(rest)
	if len(fields) < 2 {
		d.malformed = append(d.malformed, Diagnostic{
			Pos:     pos,
			Rule:    directiveRule,
			Message: "//lint:allow needs a rule name and a written reason",
		})
		return
	}
	d.allows[allowKey{file: pos.Filename, line: pos.Line, rule: fields[0]}] = true
}

// suppressed reports whether an allow directive covers the diagnostic.
func (d *directives) suppressed(diag Diagnostic) bool {
	if diag.Rule == directiveRule {
		return false
	}
	return d.allows[allowKey{diag.Pos.Filename, diag.Pos.Line, diag.Rule}] ||
		d.allows[allowKey{diag.Pos.Filename, diag.Pos.Line - 1, diag.Rule}]
}
