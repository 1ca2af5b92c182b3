// Program loads and type-checks every requested package once, over one
// FileSet; CheckProgram applies the per-package analyzers to each in turn.
// See DESIGN.md §10.

package lint

// Program is a whole module loaded and type-checked once: every requested
// package (plus, transitively, everything they import inside the module),
// sharing one FileSet so positions — and therefore findings and golden files
// — are globally consistent. Analyzers receive one Package at a time.
type Program struct {
	Packages []*Package // sorted by Path; external test packages follow their subject
}

// LoadProgram expands the patterns and loads every matched package and its
// external test package into one Program. A package that cannot be loaded
// at all (unreadable directory, no Go files) is an environment error;
// packages that merely fail to type-check load fine and degrade to
// typecheck findings.
func LoadProgram(opts Options) (*Program, error) {
	ld, err := newLoader(opts.Dir)
	if err != nil {
		return nil, err
	}
	patterns := opts.Patterns
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	paths, err := ld.expand(patterns)
	if err != nil {
		return nil, err
	}
	prog := &Program{}
	for _, path := range paths {
		pkg, err := ld.loadModulePackage(path)
		if err != nil {
			return nil, wrapLoadErr(path, err)
		}
		prog.Packages = append(prog.Packages, pkg)
		ext, err := ld.loadExternalTest(path)
		if err != nil {
			return nil, wrapLoadErr(path, err)
		}
		if ext != nil {
			prog.Packages = append(prog.Packages, ext)
		}
	}
	return prog, nil
}

// CheckProgram applies every analyzer to every package of the program, in
// package order: type errors, malformed //lint:ignore and misplaced
// //toposhot: directives become typecheck findings, suppressions are
// honored module-wide, and ignore directives that suppressed nothing are
// themselves reported.
func CheckProgram(prog *Program) []Finding {
	analyzers := Analyzers()
	table := newIgnoreTable()
	var findings []Finding
	for _, pkg := range prog.Packages {
		findings = append(findings, table.collect(pkg)...)
		findings = append(findings, directiveFindings(pkg)...)
		for _, te := range pkg.TypeErrors {
			findings = append(findings, Finding{
				Pos:  relPosition(pkg, te.Pos),
				Rule: TypecheckRule,
				Msg:  te.Msg,
			})
		}
		for _, a := range analyzers {
			findings = append(findings, a.Run(pkg)...)
		}
	}

	// Suppression and the stale-directive audit run after every package has
	// reported: matching marks directives used, and a directive left unused
	// by the full set of rules it names has outlived the code it excused.
	kept := findings[:0]
	for _, f := range findings {
		if f.Rule != TypecheckRule && table.matches(f) {
			continue
		}
		kept = append(kept, f)
	}
	findings = append(kept, table.stale()...)
	sortFindings(findings)
	return findings
}

func wrapLoadErr(path string, err error) error {
	return &loadError{path: path, err: err}
}

// loadError wraps a package-level load failure with its import path.
type loadError struct {
	path string
	err  error
}

func (e *loadError) Error() string { return "load " + e.path + ": " + e.err.Error() }
func (e *loadError) Unwrap() error { return e.err }
