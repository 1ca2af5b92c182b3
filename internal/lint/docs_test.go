package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// Line budgets of the two documents a reader navigates by. DESIGN.md states
// each layer's invariants and the test that enforces each one; the verify
// skill is a recipe for building, running and checking the tree. Past
// measurements and accounts of deleted code belong in CHANGES.md, and a
// budget is what keeps them from accreting here again.
const (
	designMaxLines = 500
	skillMaxLines  = 150
)

// citingDocs are the documents whose citations TestDocsCiteWhatExists
// resolves; the CI workflow is one, since its comments name the tests and
// sections a job stands in for. Only DESIGN.md and the skill are held to
// backticked Go names, since they are the two that describe the code
// declaration by declaration.
var citingDocs = []struct {
	path     string
	goNames  bool
	maxLines int
}{
	{"DESIGN.md", true, designMaxLines},
	{".claude/skills/verify/SKILL.md", true, skillMaxLines},
	{"README.md", false, 0},
	{"EXPERIMENTS.md", false, 0},
	{".github/workflows/ci.yml", false, 0},
}

var (
	testNameRE    = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*`)
	designCiteRE  = regexp.MustCompile(`DESIGN(?:\.md)? §(\d+)((?:(?:, | and |/)§\d+)*)`)
	sectionRE     = regexp.MustCompile(`(?m)^## (\d+)\. `)
	codeSpanRE    = regexp.MustCompile("`([^`]+)`")
	fenceRE       = regexp.MustCompile("(?ms)^```.*?^```[^\n]*$")
	qualifiedRE   = regexp.MustCompile(`([A-Za-z_]\w*)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?`)
	sectionNumsRE = regexp.MustCompile(`§(\d+)`)
)

// TestDocsCiteWhatExists fails on every citation in the documents that
// names nothing in the module:
//   - a Test…, Fuzz… or Benchmark… name that is neither a function of some
//     _test.go file nor a prefix of one (go test -run matches by prefix);
//   - a "DESIGN.md §N" in any Go file, the Makefile or a document where
//     DESIGN.md has no "## N." heading;
//   - in DESIGN.md and the skill, a backticked pkg.Name, pkg.Type.Member or
//     Type.Member where pkg is a package of the module (or Type a type of
//     it) and no declaration, method or field by that name exists; a
//     lower-case name after a package is a metric name and is skipped, and
//     so is every package outside the module;
//   - a backticked *.go or testdata/ path that no file of the module
//     matches (<Name> stands for any one path element);
//
// and on DESIGN.md or the skill running over its line budget. It parses
// without type-checking, so it runs in -short mode too.
func TestDocsCiteWhatExists(t *testing.T) {
	const root = "../.."
	mod := indexModule(t, root)

	design := readDoc(t, root, "DESIGN.md")
	sections := map[string]bool{}
	for _, m := range sectionRE.FindAllStringSubmatch(design, -1) {
		sections[m[1]] = true
	}
	checkSections := func(where, text string) {
		for _, m := range designCiteRE.FindAllStringSubmatchIndex(text, -1) {
			for _, n := range sectionNumsRE.FindAllStringSubmatch(text[m[0]:m[1]], -1) {
				if !sections[n[1]] {
					t.Errorf("%s:%d: cites DESIGN.md §%s, but DESIGN.md has no \"## %s.\" section", where, lineOf(text, m[0]), n[1], n[1])
				}
			}
		}
	}
	for _, f := range sortedKeys(mod.goSrc) {
		checkSections(f, mod.goSrc[f])
	}
	checkSections("Makefile", readDoc(t, root, "Makefile"))

	for _, doc := range citingDocs {
		text := readDoc(t, root, doc.path)
		checkSections(doc.path, text)
		if doc.maxLines > 0 {
			if n := strings.Count(text, "\n"); n > doc.maxLines {
				t.Errorf("%s is %d lines, over its budget of %d: move history to CHANGES.md", doc.path, n, doc.maxLines)
			}
		}
		for _, m := range testNameRE.FindAllStringIndex(text, -1) {
			if name := text[m[0]:m[1]]; !mod.hasTestPrefix(name) {
				t.Errorf("%s:%d: cites %s, which is no test, fuzz target or benchmark, nor a prefix of one", doc.path, lineOf(text, m[0]), name)
			}
		}
		// Code spans outside fenced blocks; a fence is blanked, not cut, so
		// offsets (and with them line numbers) stay those of the file.
		prose := fenceRE.ReplaceAllStringFunc(text, func(s string) string {
			return strings.Map(func(r rune) rune {
				if r == '\n' {
					return r
				}
				return ' '
			}, s)
		})
		for _, m := range codeSpanRE.FindAllStringSubmatchIndex(prose, -1) {
			span, line := prose[m[2]:m[3]], lineOf(prose, m[0])
			for _, p := range pathsIn(span) {
				if !mod.hasPath(p) {
					t.Errorf("%s:%d: cites `%s`, which no file of the module matches", doc.path, line, p)
				}
			}
			if !doc.goNames {
				continue
			}
			for _, q := range qualifiedRE.FindAllStringSubmatchIndex(span, -1) {
				if q[0] > 0 && strings.ContainsRune("./_", rune(span[q[0]-1])) {
					continue // a file name, a path or the tail of a longer selector
				}
				parts := []string{span[q[2]:q[3]], span[q[4]:q[5]]}
				if q[6] >= 0 {
					parts = append(parts, span[q[6]:q[7]])
				}
				if why := mod.resolve(parts); why != "" {
					t.Errorf("%s:%d: cites `%s`: %s", doc.path, line, strings.Join(parts, "."), why)
				}
			}
		}
	}
}

// moduleIndex is what the documents may cite: files, test functions and
// the declarations of every non-main package, merged with its external
// test package. Dot directories are not walked, and Go files under testdata
// declare nothing, as for the go tool.
type moduleIndex struct {
	files       map[int][]string  // module-relative file and directory paths by element count
	goSrc       map[string]string // Go file → source
	testFuncs   []string          // sorted
	fuzzTargets map[string]bool   // "pkgdir.FuzzX" for each func FuzzX(*testing.F)
	pkgs        map[string]*pkgDecls
	typePkgs    map[string][]string // type name → packages declaring it
}

type pkgDecls struct {
	names   map[string]bool
	types   map[string]bool
	members map[string]map[string]bool // type → field, embedded type and method names
}

func indexModule(t *testing.T, root string) *moduleIndex {
	t.Helper()
	mod := &moduleIndex{files: map[int][]string{}, goSrc: map[string]string{}, fuzzTargets: map[string]bool{}, pkgs: map[string]*pkgDecls{}, typePkgs: map[string][]string{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil || rel == "." {
			return err
		}
		rel = filepath.ToSlash(rel)
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		n := strings.Count(rel, "/") + 1
		mod.files[n] = append(mod.files[n], rel)
		if d.IsDir() || !strings.HasSuffix(rel, ".go") || strings.Contains("/"+rel, "/testdata/") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		mod.goSrc[rel] = string(src)
		file, err := parser.ParseFile(fset, p, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		mod.addFile(file, path.Dir(rel), strings.HasSuffix(rel, "_test.go"))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(mod.testFuncs)
	return mod
}

func (mod *moduleIndex) addFile(file *ast.File, dir string, isTest bool) {
	name := strings.TrimSuffix(file.Name.Name, "_test")
	pd := mod.pkgs[name]
	if pd == nil && name != "main" {
		pd = &pkgDecls{names: map[string]bool{}, types: map[string]bool{}, members: map[string]map[string]bool{}}
		mod.pkgs[name] = pd
	}
	for _, decl := range file.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			fn := decl.Name.Name
			if decl.Recv == nil && isTest && (strings.HasPrefix(fn, "Test") || strings.HasPrefix(fn, "Fuzz") || strings.HasPrefix(fn, "Benchmark")) {
				mod.testFuncs = append(mod.testFuncs, fn)
				if strings.HasPrefix(fn, "Fuzz") && takesTestingF(decl) {
					mod.fuzzTargets[dir+"."+fn] = true
				}
			}
			if pd == nil {
				continue
			}
			if decl.Recv == nil {
				pd.names[fn] = true
			} else if recv := receiverType(decl.Recv.List[0].Type); recv != "" {
				pd.member(recv, fn)
			}
		case *ast.GenDecl:
			if pd == nil {
				continue
			}
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.ValueSpec:
					for _, id := range spec.Names {
						pd.names[id.Name] = true
					}
				case *ast.TypeSpec:
					tn := spec.Name.Name
					pd.names[tn] = true
					pd.types[tn] = true
					mod.typePkgs[tn] = append(mod.typePkgs[tn], name)
					pd.addMembers(tn, spec.Type)
				}
			}
		}
	}
}

func (pd *pkgDecls) member(typ, name string) {
	if pd.members[typ] == nil {
		pd.members[typ] = map[string]bool{}
	}
	pd.members[typ][name] = true
}

// addMembers records the fields of a struct type and the methods of an
// interface type; an embedded type's name is a member too.
func (pd *pkgDecls) addMembers(typ string, expr ast.Expr) {
	var fields *ast.FieldList
	switch e := expr.(type) {
	case *ast.StructType:
		fields = e.Fields
	case *ast.InterfaceType:
		fields = e.Methods
	default:
		return
	}
	for _, f := range fields.List {
		for _, id := range f.Names {
			pd.member(typ, id.Name)
		}
		if len(f.Names) == 0 {
			if emb := receiverType(f.Type); emb != "" {
				pd.member(typ, emb)
			}
		}
	}
}

// receiverType returns the type name of a receiver or embedded field:
// T, *T, T[P] and pkg.T all give T.
func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.SelectorExpr:
			return x.Sel.Name
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// resolve checks one qualified name from a code span and returns why it
// names nothing, or "" when it resolves or is not the module's to check.
func (mod *moduleIndex) resolve(parts []string) string {
	if pd := mod.pkgs[parts[0]]; pd != nil {
		if !token.IsExported(parts[1]) {
			return "" // a metric name such as txpool.evicted
		}
		if !pd.names[parts[1]] {
			return "package " + parts[0] + " declares no " + parts[1]
		}
		if len(parts) == 3 && pd.types[parts[1]] && !pd.members[parts[1]][parts[2]] {
			return parts[0] + "." + parts[1] + " has no field or method " + parts[2]
		}
		return ""
	}
	pkgs := mod.typePkgs[parts[0]]
	if len(pkgs) == 0 {
		return "" // not a module type: a variable, a file name or a stdlib package
	}
	for _, p := range pkgs {
		if mod.pkgs[p].members[parts[0]][parts[1]] {
			return ""
		}
	}
	return "no type " + parts[0] + " in the module has a field or method " + parts[1]
}

func (mod *moduleIndex) hasTestPrefix(name string) bool {
	i := sort.SearchStrings(mod.testFuncs, name)
	return i < len(mod.testFuncs) && strings.HasPrefix(mod.testFuncs[i], name)
}

// hasPath reports whether some file or directory of the module ends with
// the path p, element for element, "*" matching within one element.
func (mod *moduleIndex) hasPath(p string) bool {
	p = strings.TrimSuffix(strings.TrimPrefix(p, "./"), "/")
	n := strings.Count(p, "/") + 1
	for k, files := range mod.files {
		if k < n {
			continue
		}
		for _, f := range files {
			tail := f
			for i := 0; i < k-n; i++ {
				tail = tail[strings.IndexByte(tail, '/')+1:]
			}
			if ok, _ := path.Match(p, tail); ok {
				return true
			}
		}
	}
	return false
}

// pathsIn returns the words of a code span that name a Go file or a path
// into a testdata directory, with <Placeholder> elements and a leading "_"
// suffix turned into "*" patterns.
func pathsIn(span string) []string {
	var out []string
	for _, w := range strings.Fields(span) {
		w = strings.Trim(w, "(),;:'\"")
		if !strings.HasSuffix(w, ".go") && !strings.Contains(w, "testdata/") {
			continue
		}
		if strings.HasPrefix(w, "_") {
			w = "*" + w // a suffix such as _test.go
		}
		for {
			i := strings.IndexByte(w, '<')
			j := strings.IndexByte(w, '>')
			if i < 0 || j < i {
				break
			}
			w = w[:i] + "*" + w[j+1:]
		}
		out = append(out, w)
	}
	return out
}

func readDoc(t *testing.T, root, rel string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(root, rel))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func lineOf(text string, off int) int {
	return strings.Count(text[:off], "\n") + 1
}
