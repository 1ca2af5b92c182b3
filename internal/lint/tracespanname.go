package lint

import (
	"go/ast"
	"go/types"
)

var analyzerTraceSpanname = &Analyzer{
	Name: "trace-spanname",
	Doc:  "span and event names passed to StartSpan/Event must be compile-time constants",
	Run:  runTraceSpanname,
}

func runTraceSpanname(pkg *Package) []Finding {
	var findings []Finding
	info := pkg.Info
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			obj := calleeObject(info, call)
			if obj == nil || objectPkgPath(obj) != tracePkg {
				return true
			}
			if obj.Name() != "StartSpan" && obj.Name() != "Event" {
				return true
			}
			sig, ok := obj.Type().(*types.Signature)
			if !ok || sig.Recv() == nil {
				return true
			}
			if tv, ok := info.Types[call.Args[0]]; !ok || tv.Value == nil {
				findings = append(findings, report(pkg, call.Args[0], "trace-spanname",
					obj.Name()+" name must be a compile-time constant so traces aggregate and lint stays greppable"))
			}
			return true
		})
	}
	return findings
}
