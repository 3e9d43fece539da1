package enframe

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// modulePath is go.mod's module line; imports of the module's own packages
// start with it.
const modulePath = "enframe"

// interfaceMethods are method names the standard library calls through its
// own interfaces (error, fmt.Stringer, http.Handler, sort.Interface, …): such
// a method has a production caller even when no module file names it.
var interfaceMethods = map[string]bool{
	"Error": true, "Unwrap": true, "Is": true, "As": true,
	"String": true, "GoString": true, "Format": true,
	"ServeHTTP": true, "MarshalJSON": true, "UnmarshalJSON": true,
	"MarshalText": true, "UnmarshalText": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "Close": true,
}

// testNameRE finds a test, fuzz target or benchmark named in a doc comment.
var testNameRE = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*`)

// exportedDecl is one exported package-level symbol or method under
// internal/.
type exportedDecl struct {
	pkg    string // import path
	recv   string // receiver type name for a method, "" otherwise
	name   string
	doc    string
	pos    token.Position
	method bool
}

func (d exportedDecl) String() string {
	if d.recv != "" {
		return d.pkg + "." + d.recv + "." + d.name
	}
	return d.pkg + "." + d.name
}

// TestExportedSymbolsHaveProductionCallers keeps the module's internal API
// to what production code uses: every exported func, method, type, var or
// const declared in a non-test file under internal/ must be referenced from a
// non-test file of the module, or its doc comment must name the test,
// fuzz target or benchmark it serves (an oracle, a reference switch).
//
// References are resolved syntactically: a package-level symbol counts as
// used when a non-test file of its own package names it, or another file
// selects it through an import of that package; a method counts as used when
// any non-test file selects a member of that name from a value (not from a
// package), or it is one of the interfaceMethods. A method's receiver type is
// not a use of that type.
func TestExportedSymbolsHaveProductionCallers(t *testing.T) {
	fset := token.NewFileSet()
	type file struct {
		pkg string // import path of the file's package
		ast *ast.File
	}
	var prod []file
	tests := map[string]bool{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			base := d.Name()
			if p != "." && (strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") || base == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if strings.HasSuffix(p, "_test.go") {
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && testNameRE.MatchString(fn.Name.Name) {
					tests[fn.Name.Name] = true
				}
			}
			return nil
		}
		prod = append(prod, file{pkg: path.Join(modulePath, filepath.ToSlash(filepath.Dir(p))), ast: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Package names by import path, to resolve an unaliased import.
	pkgName := map[string]string{}
	for _, f := range prod {
		pkgName[f.pkg] = f.ast.Name.Name
	}

	var decls []exportedDecl
	used := map[string]bool{}     // "<import path>.<name>" of package-level symbols
	selected := map[string]bool{} // names selected as X.<name> anywhere
	for _, f := range prod {
		if strings.HasPrefix(f.pkg, modulePath+"/internal/") {
			decls = append(decls, exportedDecls(fset, f.pkg, f.ast)...)
		}
		imports := map[string]string{} // local name → import path
		for _, imp := range f.ast.Imports {
			ip := strings.Trim(imp.Path.Value, `"`)
			if !strings.HasPrefix(ip, modulePath+"/") {
				continue
			}
			local := pkgName[ip]
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imports[local] = ip
		}
		declared := declIdents(f.ast)
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if ip, ok := imports[x.Name]; ok {
						used[ip+"."+n.Sel.Name] = true
						return true
					}
				}
				selected[n.Sel.Name] = true
			case *ast.Ident:
				if !declared[n] {
					used[f.pkg+"."+n.Name] = true
				}
			}
			return true
		})
	}

	var bad []string
	for _, d := range decls {
		if d.method && (selected[d.name] || interfaceMethods[d.name]) ||
			!d.method && used[d.pkg+"."+d.name] {
			continue
		}
		if named := testNameRE.FindAllString(d.doc, -1); len(named) > 0 {
			missing := ""
			for _, n := range named {
				if !tests[n] {
					missing = n
				}
			}
			if missing == "" {
				continue
			}
			bad = append(bad, d.pos.String()+": "+d.String()+": doc comment names "+missing+", which no test file declares")
			continue
		}
		bad = append(bad, d.pos.String()+": "+d.String()+": no non-test caller, and its doc comment names no test it serves")
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
}

// exportedDecls lists the exported top-level declarations of one file.
func exportedDecls(fset *token.FileSet, pkg string, f *ast.File) []exportedDecl {
	var out []exportedDecl
	add := func(id *ast.Ident, recv string, doc *ast.CommentGroup, method bool) {
		if id.IsExported() {
			out = append(out, exportedDecl{pkg: pkg, recv: recv, name: id.Name,
				doc: doc.Text(), pos: fset.Position(id.Pos()), method: method})
		}
	}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			if decl.Recv == nil {
				add(decl.Name, "", decl.Doc, false)
				continue
			}
			recv := receiverName(decl.Recv.List[0].Type)
			if ast.IsExported(recv) {
				add(decl.Name, recv, decl.Doc, true)
			}
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					add(spec.Name, "", docOf(spec.Doc, decl), false)
				case *ast.ValueSpec:
					for _, id := range spec.Names {
						add(id, "", docOf(spec.Doc, decl), false)
					}
				}
			}
		}
	}
	return out
}

// docOf is a spec's own doc comment, or its declaration group's.
func docOf(spec *ast.CommentGroup, decl *ast.GenDecl) *ast.CommentGroup {
	if spec != nil {
		return spec
	}
	return decl.Doc
}

// receiverName strips pointers and type parameters from a receiver type.
func receiverName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// declIdents is the set of identifiers that name what a file declares at
// top level, and the receiver types of its methods, so neither a declaration
// nor a method of a type counts as a use.
func declIdents(f *ast.File) map[*ast.Ident]bool {
	out := map[*ast.Ident]bool{}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			out[decl.Name] = true
			if decl.Recv != nil {
				ast.Inspect(decl.Recv.List[0].Type, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						out[id] = true
					}
					return true
				})
			}
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					out[spec.Name] = true
				case *ast.ValueSpec:
					for _, id := range spec.Names {
						out[id] = true
					}
				}
			}
		}
	}
	return out
}
