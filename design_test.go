package leases_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	designTestName = regexp.MustCompile(`\b(?:Test|Fuzz|Break)[A-Z][A-Za-z0-9_]*`)
	designGoPath   = regexp.MustCompile(`[A-Za-z0-9_./-]+\.go\b`)
	designCode     = regexp.MustCompile("`([^`\n]+)`")
	designSymbol   = regexp.MustCompile(`^([a-z][a-z0-9]*)\.([A-Z][A-Za-z0-9_]*)(?:\.([A-Za-z][A-Za-z0-9_]*))?`)
)

// goDecls parses every Go file of the module and returns, per package
// name, the names it declares: top-level names, and "T.M" for every
// method M and field M of type T, with "*.M" beside it. files is every
// file's path relative to the module root.
func goDecls(t *testing.T) (decls map[string]map[string]bool, files []string) {
	t.Helper()
	decls = map[string]map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		files = append(files, path)
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := strings.TrimSuffix(f.Name.Name, "_test")
		names := decls[pkg]
		if names == nil {
			names = map[string]bool{}
			decls[pkg] = names
		}
		member := func(typ, name string) { names[typ+"."+name], names["*."+name] = true, true }
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					names[d.Name.Name] = true
					continue
				}
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					member(id.Name, d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						names[s.Name.Name] = true
						if st, ok := s.Type.(*ast.StructType); ok {
							for _, fld := range st.Fields.List {
								for _, n := range fld.Names {
									member(s.Name.Name, n.Name)
								}
							}
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							names[n.Name] = true
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decls, files
}

// TestDesignReferencesExist keeps DESIGN.md honest about the code: every
// Test…, Fuzz… or Break… name it cites is declared somewhere in the
// module, every .go path names a file (from the module root, from
// internal/, or — a bare file name — anywhere), and every `pkg.Symbol`
// in code spans whose pkg is one of the module's packages names a
// declaration of that package (pkg.T.M: a method or field M of T; a bare
// pkg.M may be a method or field of any of its types).
func TestDesignReferencesExist(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(doc)
	decls, files := goDecls(t)
	declared := func(name string) bool {
		for _, names := range decls {
			if names[name] {
				return true
			}
		}
		return false
	}
	for _, name := range designTestName.FindAllString(text, -1) {
		if !declared(name) {
			t.Errorf("DESIGN.md cites %s, which nothing declares", name)
		}
	}
	for _, p := range designGoPath.FindAllString(text, -1) {
		found := false
		for _, f := range files {
			f = filepath.ToSlash(f)
			if f == p || f == "internal/"+p || !strings.Contains(p, "/") && filepath.Base(f) == p {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("DESIGN.md cites %s, which is not a file of the module", p)
		}
	}
	for _, span := range designCode.FindAllStringSubmatch(text, -1) {
		m := designSymbol.FindStringSubmatch(span[1])
		if m == nil {
			continue
		}
		names, ok := decls[m[1]]
		if !ok || m[1] == "main" {
			continue // not one of the module's packages
		}
		switch {
		case m[3] != "" && !names[m[2]+"."+m[3]]:
			t.Errorf("DESIGN.md cites %s.%s.%s, which package %s does not declare", m[1], m[2], m[3], m[1])
		case m[3] == "" && !names[m[2]] && !names["*."+m[2]]:
			t.Errorf("DESIGN.md cites %s.%s, which package %s does not declare", m[1], m[2], m[1])
		}
	}
}
