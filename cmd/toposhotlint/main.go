// Command toposhotlint runs the repository's project-specific static
// analyzers (see internal/lint) over module packages.
//
// Usage:
//
//	toposhotlint [-rules rule1,rule2] [-list] [-json] [-sarif file]
//	             [-github] [-no-tests] [packages...]
//
// Packages default to ./... . Findings print one per line as
// "file:line: [rule] message"; -json switches stdout to a JSON array, -sarif
// additionally writes a SARIF 2.1.0 log to the given file (CI uploads it as
// an artifact), and -github appends GitHub Actions ::error annotations so
// findings surface inline on pull requests. Exit status is 0 when the tree
// is clean, 1 when findings were reported, and 2 on usage or load errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"toposhot/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("toposhotlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	rules := fs.String("rules", "", "comma-separated subset of rules to run (default: all)")
	list := fs.Bool("list", false, "list known rules and exit")
	asJSON := fs.Bool("json", false, "print findings as a JSON array instead of plain lines")
	sarifPath := fs.String("sarif", "", "also write a SARIF 2.1.0 log to this file")
	github := fs.Bool("github", false, "emit GitHub Actions ::error annotations for findings")
	noTests := fs.Bool("no-tests", false, "exclude _test.go files from analysis")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: toposhotlint [-rules rule1,rule2] [-list] [-json] [-sarif file] [-github] [-no-tests] [packages...]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, name := range lint.AnalyzerNames() {
			fmt.Fprintf(stdout, "%-16s %s\n", name, lint.ByName(name).Doc)
		}
		return 0
	}
	opts := lint.Options{
		Patterns: fs.Args(),
		NoTests:  *noTests,
	}
	if *rules != "" {
		for _, r := range strings.Split(*rules, ",") {
			if r = strings.TrimSpace(r); r != "" {
				opts.Rules = append(opts.Rules, r)
			}
		}
	}
	findings, err := lint.Run(opts)
	if err != nil {
		fmt.Fprintln(stderr, "toposhotlint:", err)
		return 2
	}
	if *sarifPath != "" {
		f, err := os.Create(*sarifPath)
		if err != nil {
			fmt.Fprintln(stderr, "toposhotlint:", err)
			return 2
		}
		err = lint.WriteSARIF(f, findings)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(stderr, "toposhotlint: write sarif:", err)
			return 2
		}
	}
	if *asJSON {
		if err := lint.WriteJSON(stdout, findings); err != nil {
			fmt.Fprintln(stderr, "toposhotlint:", err)
			return 2
		}
	} else if len(findings) > 0 {
		fmt.Fprint(stdout, lint.Format(findings))
	}
	if *github {
		for _, f := range findings {
			// GitHub Actions workflow command: one inline PR annotation per
			// finding. Newlines in messages would break the protocol; rule
			// messages are single-line by construction.
			fmt.Fprintf(stdout, "::error file=%s,line=%d,title=%s::%s\n",
				f.Pos.Filename, f.Pos.Line, f.Rule, f.Msg)
		}
	}
	if len(findings) == 0 {
		return 0
	}
	fmt.Fprintf(stderr, "toposhotlint: %d finding(s)\n", len(findings))
	return 1
}
