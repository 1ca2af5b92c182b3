// Package lint implements toposhotlint, the repository's project-specific
// static-analysis suite. It enforces invariants the compiler cannot see but
// the paper's measurement methodology depends on:
//
//   - nodeterminism: simulation packages must be reproducible — no wall
//     clock, no global math/rand, no results that depend on map iteration
//     order (same seed ⇒ same topology inference) — and no function marked
//     //toposhot:hotpath may range over a map at all.
//   - locksafe: no channel send, network write, or callback invocation while
//     a sync.Mutex/RWMutex is held — the head-of-line-blocking shape that
//     stalled live-node peers before PR 1 — and no second mutex taken while
//     one is held.
//   - hotalloc: functions marked //toposhot:hotpath stay allocation-free —
//     no closure creation, map/slice literals, unpreallocated append growth,
//     or interface boxing where PR 4 fought allocations down to 455/op.
//   - errcheck-wire: results of internal/rlp and internal/wire
//     encode/decode calls and net.Conn deadline/write calls must not be
//     discarded; a swallowed wire error silently breaks §5.2 isolation.
//   - metrics-nilsafe, trace-nilsafe: internal/metrics instruments and
//     internal/trace / internal/obs handles are nil-safe by design and must
//     be used through their methods, never nil-compared or dereferenced.
//   - trace-spanname: span names are compile-time constants.
//
// A function puts itself on the hot path with
//
//	//toposhot:hotpath
//
// as the last line of its own doc comment (hotpath.go); a //toposhot: comment
// anywhere else, or spelled any other way, is an error.
//
// The driver is dependency-free: all module packages are loaded into one
// Program with go/parser, type-checked with go/types against a go/importer
// "source" importer (test files included unless opted out), and analyzed one
// package at a time. Findings render as
//
//	file:line: [rule-id] message
//
// (SARIF and JSON renderings are available for CI), and can be suppressed in
// place with
//
//	//lint:ignore rule-id reason
//
// on the offending line or the line directly above it. The reason is
// mandatory; an ignore directive naming an unknown rule is itself an error,
// and a directive that no longer suppresses anything is reported as stale.
package lint

import (
	"fmt"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
)

// Finding is one analyzer report.
type Finding struct {
	Pos  token.Position
	Rule string
	Msg  string
}

// String renders the finding in the canonical file:line: [rule] message form.
// File paths are kept as produced by the loader (module-relative).
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Rule, f.Msg)
}

// Analyzer is one named rule, applied independently to each package.
type Analyzer struct {
	// Name is the rule id used in reports and ignore directives.
	Name string
	// Doc is a one-line description.
	Doc string
	// Run reports the rule's findings for one package.
	Run func(p *Package) []Finding
}

// Analyzers returns the full suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		analyzerNoDeterminism,
		analyzerLockSafe,
		analyzerErrcheckWire,
		analyzerMetricsNilsafe,
		analyzerTraceNilsafe,
		analyzerTraceSpanname,
		analyzerHotAlloc,
	}
}

// AnalyzerNames returns the known rule ids, sorted.
func AnalyzerNames() []string {
	names := make([]string, 0, len(Analyzers()))
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	sort.Strings(names)
	return names
}

// ByName returns the analyzer with the given rule id, or nil.
func ByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Options configures a Run.
type Options struct {
	// Dir is the working directory (the module root is discovered from it,
	// and package patterns resolve against it). Empty means the process
	// working directory.
	Dir string
	// Patterns are package patterns: "./..." (the default when empty),
	// "./dir/..." or "./dir".
	Patterns []string
	// Rules selects a subset of analyzers by name; empty means all. Unknown
	// names are rejected with an error.
	Rules []string
	// NoTests excludes _test.go files from the load. By default test files
	// are linted too: determinism bugs in test helpers (unseeded RNG,
	// map-order golden construction) corrupt goldens as surely as bugs in
	// the code under test.
	NoTests bool
}

// TypecheckRule is the pseudo-rule under which loader and type-check errors
// are reported. It cannot be selected or suppressed: a package that does not
// type-check cannot be trusted to lint clean.
const TypecheckRule = "typecheck"

// StaleIgnoreRule is the pseudo-rule under which unused //lint:ignore
// directives are reported. Like typecheck it cannot be selected or
// suppressed — a suppression must not be able to excuse itself.
const StaleIgnoreRule = "stale-ignore"

// Run loads the requested packages into one Program and applies the selected
// analyzers. Findings come back sorted by position; type-check and parse
// errors are reported as findings under the "typecheck" pseudo-rule rather
// than aborting the run, so a broken package degrades to a report, not a
// panic.
func Run(opts Options) ([]Finding, error) {
	analyzers, err := selectAnalyzers(opts.Rules)
	if err != nil {
		return nil, err
	}
	prog, err := LoadProgram(opts)
	if err != nil {
		return nil, err
	}
	return CheckProgram(prog, analyzers), nil
}

// selectAnalyzers resolves a -rules subset (empty means the full suite).
func selectAnalyzers(rules []string) ([]*Analyzer, error) {
	analyzers := Analyzers()
	if len(rules) == 0 {
		return analyzers, nil
	}
	analyzers = nil
	for _, name := range rules {
		a := ByName(name)
		if a == nil {
			return nil, fmt.Errorf("unknown rule %q (known: %s)", name, strings.Join(AnalyzerNames(), ", "))
		}
		analyzers = append(analyzers, a)
	}
	return analyzers, nil
}

// CheckPackage applies analyzers to one loaded package by wrapping it in a
// single-package program: type errors become typecheck findings, analyzer
// findings pass through the package's ignore directives, and malformed,
// unknown-rule, or stale directives are reported. Fixture tests use this.
func CheckPackage(pkg *Package, analyzers []*Analyzer) []Finding {
	return CheckProgram(NewProgram(pkg), analyzers)
}

// Format renders findings one per line — the golden-file format.
func Format(findings []Finding) string {
	var b strings.Builder
	for _, f := range findings {
		b.WriteString(f.String())
		b.WriteByte('\n')
	}
	return b.String()
}

func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
}

// relPosition resolves a token.Pos to a position whose path is relative to
// the package's module root — never the process working directory — so
// findings and golden files are byte-identical no matter which subdirectory
// the linter is invoked from. Paths the loader already recorded as
// module-relative pass through; absolute paths (e.g. a type error positioned
// in a GOROOT source file) are made module-relative when they fall under the
// module root and kept absolute otherwise.
func relPosition(pkg *Package, pos token.Pos) token.Position {
	p := pkg.Fset.Position(pos)
	if filepath.IsAbs(p.Filename) && pkg.ModRoot != "" {
		if rel, err := filepath.Rel(pkg.ModRoot, p.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			p.Filename = rel
		}
	}
	p.Filename = filepath.ToSlash(p.Filename)
	return p
}
