package lint

import (
	"go/ast"
	"strings"
)

// hotPathDirective, as a line of a function declaration's doc comment, puts
// that function's body under nodeterminism's map-iteration ban and hotalloc's
// allocation bans. Scope is declared where the code is, so it follows the
// function through renames and moves; `grep -rn toposhot:hotpath internal` is
// the list. gofmt keeps directive-shaped lines last in a doc comment, after a
// bare `//` spacer.
const hotPathDirective = "//toposhot:hotpath"

// directivePrefix is the namespace hotPathDirective lives in. Every comment
// that starts with it must be a well-placed hotPathDirective: a misspelt or
// detached directive would silently guard nothing.
const directivePrefix = "//toposhot:"

// isHotPath reports whether the function's doc comment carries the directive.
func isHotPath(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if c.Text == hotPathDirective {
			return true
		}
	}
	return false
}

// hotPathFuncs returns the package's function declarations under the hot-path
// bans: those carrying the directive or, with all set, every one (internal/sim
// is hot path by package). Test files never run on the hot path and are
// skipped, as are declarations without a body.
func hotPathFuncs(pkg *Package, all bool) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, file := range pkg.Files {
		if pkg.IsTestFile(file) {
			continue
		}
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil && (all || isHotPath(fn)) {
				out = append(out, fn)
			}
		}
	}
	return out
}

// directiveFindings reports every //toposhot: comment that is not a
// hotPathDirective in force — unknown spelling, not part of a function
// declaration's doc comment, or in a test file — under the typecheck
// pseudo-rule, like a malformed //lint:ignore.
func directiveFindings(pkg *Package) []Finding {
	var findings []Finding
	for _, file := range pkg.Files {
		test := pkg.IsTestFile(file)
		funcDocs := make(map[*ast.CommentGroup]bool)
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Doc != nil {
				funcDocs[fn.Doc] = true
			}
		}
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				var msg string
				switch {
				case c.Text != hotPathDirective:
					msg = "unknown directive " + quote(c.Text) + ": want exactly " + hotPathDirective
				case test:
					msg = hotPathDirective + " in a test file guards nothing: test code is never on the hot path"
				case !funcDocs[cg]:
					msg = hotPathDirective + " attaches to nothing: it must be a line of a function declaration's doc comment"
				default:
					continue
				}
				findings = append(findings, Finding{Pos: relPosition(pkg, c.Pos()), Rule: TypecheckRule, Msg: msg})
			}
		}
	}
	return findings
}
