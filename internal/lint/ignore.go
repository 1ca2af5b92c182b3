package lint

import (
	"go/token"
	"sort"
	"strings"
)

// ignoreKey identifies one suppressible (file, line, rule) site.
type ignoreKey struct {
	file string
	line int
	rule string
}

// IgnorePrefix introduces a suppression directive:
//
//	//lint:ignore rule-id[,rule-id...] reason
//
// placed on the offending line or the line directly above it.
const IgnorePrefix = "//lint:ignore"

// ignoreDirective is one parsed, well-formed //lint:ignore comment. The
// driver tracks whether it actually suppressed anything: a directive that
// suppresses no finding has outlived the code it excused and is reported
// under StaleIgnoreRule.
type ignoreDirective struct {
	pos   token.Position
	rules []string
	used  bool
}

// ignoreTable holds every package's parsed directives, keyed module-wide.
// Filenames are module-root-relative and therefore unique across packages.
type ignoreTable struct {
	byKey      map[ignoreKey]*ignoreDirective
	directives []*ignoreDirective // in collection order, for the stale audit
}

func newIgnoreTable() *ignoreTable {
	return &ignoreTable{byKey: make(map[ignoreKey]*ignoreDirective)}
}

// collect parses every comment in the package for ignore directives.
// Malformed directives (missing rule, missing reason, unknown rule) are
// returned as findings under the typecheck pseudo-rule: a directive that
// silently fails to parse would silently fail to suppress.
func (t *ignoreTable) collect(pkg *Package) []Finding {
	var bad []Finding
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, IgnorePrefix) {
					continue
				}
				pos := relPosition(pkg, c.Pos())
				rest := strings.TrimPrefix(c.Text, IgnorePrefix)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					// e.g. //lint:ignoreXYZ — not our directive.
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					bad = append(bad, Finding{
						Pos:  pos,
						Rule: TypecheckRule,
						Msg:  "malformed ignore directive: want //lint:ignore rule-id reason",
					})
					continue
				}
				rules := strings.Split(fields[0], ",")
				ok := true
				for _, r := range rules {
					if ByName(r) == nil {
						bad = append(bad, Finding{
							Pos:  pos,
							Rule: TypecheckRule,
							Msg:  "ignore directive names unknown rule " + quote(r),
						})
						ok = false
					}
				}
				if !ok {
					continue
				}
				d := &ignoreDirective{pos: pos, rules: rules}
				t.directives = append(t.directives, d)
				// The directive suppresses findings on its own line and the
				// line below (standalone-comment placement).
				for _, r := range rules {
					t.byKey[ignoreKey{pos.Filename, pos.Line, r}] = d
					t.byKey[ignoreKey{pos.Filename, pos.Line + 1, r}] = d
				}
			}
		}
	}
	return bad
}

// matches reports whether a finding is suppressed by a directive on its line
// (trailing comment) or the line above (standalone comment), marking the
// directive used.
func (t *ignoreTable) matches(f Finding) bool {
	d := t.byKey[ignoreKey{f.Pos.Filename, f.Pos.Line, f.Rule}]
	if d == nil {
		return false
	}
	d.used = true
	return true
}

// stale reports directives that suppressed nothing. Every run applies the
// full suite, so an idle directive has outlived the code it excused.
func (t *ignoreTable) stale() []Finding {
	var out []Finding
	for _, d := range t.directives {
		if d.used {
			continue
		}
		sorted := append([]string(nil), d.rules...)
		sort.Strings(sorted)
		out = append(out, Finding{
			Pos:  d.pos,
			Rule: StaleIgnoreRule,
			Msg: "ignore directive for " + strings.Join(sorted, ",") +
				" suppresses nothing; the code it excused is gone — remove the directive",
		})
	}
	return out
}

func quote(s string) string {
	return `"` + s + `"`
}
