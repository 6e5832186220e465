package pinpoint_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestDesignMatchesCode keeps DESIGN.md a map of the code as it stands:
// every Test, Fuzz or Benchmark name it cites is declared in some _test.go
// file; every internal package is named in a heading; and every exported
// field of a non-test ...Config, ...Options or ...Opts struct outside
// cmd/bench (the set CI counts as settable options) is named as
// Type.Field, a whole word, in the section of its package.
func TestDesignMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	design := string(raw)
	sections := designSections(design)

	declared := map[string]bool{}
	options := 0
	fset := token.NewFileSet()
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if strings.HasSuffix(path, "_test.go") {
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
					declared[fn.Name.Name] = true
				}
			}
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if dir == "cmd/bench" || strings.HasPrefix(dir, "cmd/bench/") {
			return nil
		}
		for _, field := range optionFields(f) {
			options++
			named := regexp.MustCompile(`(^|[^A-Za-z0-9_])` + regexp.QuoteMeta(field) + `\b`)
			if !named.MatchString(sections[dir]) {
				t.Errorf("%s: option field %s is not named in the DESIGN.md section whose heading names %s", path, field, dir)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	if options == 0 || len(declared) == 0 {
		t.Fatalf("found %d option fields and %d test declarations: the walk missed the tree", options, len(declared))
	}

	cited := regexp.MustCompile(`\b(Test|Fuzz|Benchmark)[A-Z0-9_][A-Za-z0-9_]*`).FindAllString(design, -1)
	slices.Sort(cited)
	for _, name := range slices.Compact(cited) {
		if !declared[name] {
			t.Errorf("DESIGN.md cites %s, which no _test.go file declares", name)
		}
	}

	pkgs, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		if dir := "internal/" + p.Name(); p.IsDir() && sections[dir] == "" {
			t.Errorf("no DESIGN.md heading names %s", dir)
		}
	}
}

// designSections maps every package path a "## " heading of the design
// names, in backquotes, to the text of that heading's section.
func designSections(design string) map[string]string {
	sections := map[string]string{}
	quoted := regexp.MustCompile("`([a-z]+(?:/[a-z]+)*)`")
	for _, sec := range strings.Split(design, "\n## ")[1:] {
		heading, _, _ := strings.Cut(sec, "\n")
		for _, m := range quoted.FindAllStringSubmatch(heading, -1) {
			sections[m[1]] += sec
		}
	}
	return sections
}

// optionFields lists f's exported option fields as Type.Field.
func optionFields(f *ast.File) []string {
	var out []string
	for _, decl := range f.Decls {
		gen, ok := decl.(*ast.GenDecl)
		if !ok || gen.Tok != token.TYPE {
			continue
		}
		for _, spec := range gen.Specs {
			ts := spec.(*ast.TypeSpec)
			st, ok := ts.Type.(*ast.StructType)
			name := ts.Name.Name
			if !ok || !strings.HasSuffix(name, "Config") && !strings.HasSuffix(name, "Options") && !strings.HasSuffix(name, "Opts") {
				continue
			}
			for _, field := range st.Fields.List {
				for _, id := range field.Names {
					if id.IsExported() {
						out = append(out, name+"."+id.Name)
					}
				}
			}
		}
	}
	return out
}
