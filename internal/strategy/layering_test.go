package strategy

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOnlyCampaignImportsEthsim keeps the strategies clients of core.Vantage
// alone: no non-test file but campaign.go may import the simulator.
// campaign.go still does because NewMethod takes an *ethsim.Network and an
// *ethsim.Supernode, a signature the bench's layer pass calls and so freezes
// until the bench is next opened (ROADMAP item 4).
func TestOnlyCampaignImportsEthsim(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") || name == "campaign.go" {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "toposhot/internal/ethsim" {
				t.Errorf("%s imports %s: strategies probe through core.Vantage", name, path)
			}
		}
	}
}
