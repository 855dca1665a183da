package qmatch_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"qmatch"
	"qmatch/internal/dataset"
	"qmatch/internal/ddl"
	"qmatch/internal/dtd"
	"qmatch/internal/infer"
	"qmatch/internal/jsonschema"
	"qmatch/internal/xmltree"
	"qmatch/internal/xsd"
)

const bookDTD = `
<!ELEMENT Book (Title, Author+, ISBN?, Year)>
<!ELEMENT Title (#PCDATA)>
<!ELEMENT Author (#PCDATA)>
<!ELEMENT ISBN (#PCDATA)>
<!ELEMENT Year (#PCDATA)>
<!ATTLIST Book lang CDATA #IMPLIED>
`

const bookXML = `<Book lang="en">
  <Title>Go in Practice</Title>
  <Author>A. Gopher</Author>
  <Author>B. Gopher</Author>
  <Year>2005</Year>
</Book>`

func TestParseDTDString(t *testing.T) {
	s, err := qmatch.ParseDTDString(bookDTD, "")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "Book" || s.Size() != 6 {
		t.Fatalf("schema = %s/%d", s.Name(), s.Size())
	}
}

func TestInferSchemaString(t *testing.T) {
	s, err := qmatch.InferSchemaString(bookXML)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "Book" {
		t.Fatalf("name = %s", s.Name())
	}
	paths := s.Paths()
	if len(paths) != 5 { // Book, lang, Title, Author, Year
		t.Fatalf("paths = %v", paths)
	}
}

func TestCrossFormatMatching(t *testing.T) {
	// DTD-declared schema vs schema inferred from an instance document:
	// the cross-format scenario the paper's introduction motivates.
	dtdSchema, err := qmatch.ParseDTDString(bookDTD, "")
	if err != nil {
		t.Fatal(err)
	}
	inferred, err := qmatch.InferSchemaString(bookXML)
	if err != nil {
		t.Fatal(err)
	}
	report := qmatch.Match(dtdSchema, inferred)
	if report.TreeQoM < 0.6 {
		t.Fatalf("cross-format QoM = %v", report.TreeQoM)
	}
	found := map[string]string{}
	for _, c := range report.Correspondences {
		found[c.Source] = c.Target
	}
	for _, want := range []string{"Book/Title", "Book/Author", "Book/Year"} {
		if found[want] == "" {
			t.Errorf("missing correspondence for %s (got %v)", want, found)
		}
	}
}

func TestLoadSchemaByExtension(t *testing.T) {
	dir := t.TempDir()
	dtdPath := filepath.Join(dir, "book.dtd")
	xmlPath := filepath.Join(dir, "book.xml")
	os.WriteFile(dtdPath, []byte(bookDTD), 0o644)
	os.WriteFile(xmlPath, []byte(bookXML), 0o644)

	fromDTD, err := qmatch.LoadSchema(dtdPath)
	if err != nil {
		t.Fatal(err)
	}
	if fromDTD.Size() != 6 {
		t.Fatalf("dtd size = %d", fromDTD.Size())
	}
	fromXML, err := qmatch.LoadSchema(xmlPath)
	if err != nil {
		t.Fatal(err)
	}
	if fromXML.Name() != "Book" {
		t.Fatalf("xml name = %s", fromXML.Name())
	}
	// .xsd goes through the XSD parser.
	xsdPath := filepath.Join(dir, "book.xsd")
	os.WriteFile(xsdPath, []byte(fromDTD.XSD()), 0o644)
	fromXSD, err := qmatch.LoadSchema(xsdPath)
	if err != nil {
		t.Fatal(err)
	}
	if fromXSD.Name() != "Book" {
		t.Fatalf("xsd name = %s", fromXSD.Name())
	}
}

// Every LoadSchema error names the file exactly once: a missing file, a
// malformed file of each extension, and junk under an unknown extension.
func TestLoadSchemaMissingFiles(t *testing.T) {
	dir := t.TempDir()
	var paths []string
	for _, name := range []string{"a.dtd", "a.xml", "a.xsd", "a.json", "a.sql"} {
		paths = append(paths, filepath.Join(dir, "missing", name))
	}
	for name, data := range map[string]string{
		"bad.xsd": "<unclosed", "bad.dtd": "<unclosed", "bad.xml": "<unclosed",
		"bad.json": "<unclosed", "bad.sql": "<unclosed", "bad.ddl": "<unclosed",
		"junk.txt": "not a schema",
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	for _, path := range paths {
		_, err := qmatch.LoadSchema(path)
		if err == nil {
			t.Errorf("%s: accepted", path)
			continue
		}
		if n := strings.Count(err.Error(), path); n != 1 {
			t.Errorf("%s: error names the file %d times: %v", path, n, err)
		}
	}
}

const bookJSONSchema = `{
  "title": "Book",
  "type": "object",
  "required": ["Title", "Author", "Year"],
  "properties": {
    "lang": {"type": "string"},
    "Title": {"type": "string"},
    "Author": {"type": "array", "items": {"type": "string"}},
    "ISBN": {"type": "string"},
    "Year": {"type": "integer"}
  }
}`

const bookDDL = `
CREATE TABLE Book (
    Title VARCHAR(200) NOT NULL,
    Author VARCHAR(120) NOT NULL,
    ISBN CHAR(13),
    Year INT NOT NULL,
    lang VARCHAR(8)
);`

func TestParseJSONSchemaString(t *testing.T) {
	s, err := qmatch.ParseJSONSchemaString(bookJSONSchema)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "Book" || s.Size() != 6 {
		t.Fatalf("schema = %s/%d:\n%s", s.Name(), s.Size(), s.Dump())
	}
}

func TestParseDDLString(t *testing.T) {
	s, err := qmatch.ParseDDLString(bookDDL, "library")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "library" || s.Size() != 7 {
		t.Fatalf("schema = %s/%d:\n%s", s.Name(), s.Size(), s.Dump())
	}
}

// The heterogeneous pairs of ROADMAP item 2: a DTD-declared schema
// against its JSON Schema and DDL formulations must match strongly —
// same labels, compatible datatypes, same one-level-of-children shape.
func TestHeterogeneousFormatMatching(t *testing.T) {
	dtdSchema, err := qmatch.ParseDTDString(bookDTD, "")
	if err != nil {
		t.Fatal(err)
	}
	jsSchema, err := qmatch.ParseJSONSchemaString(bookJSONSchema)
	if err != nil {
		t.Fatal(err)
	}
	ddlSchema, err := qmatch.ParseDDLString(bookDDL, "Library")
	if err != nil {
		t.Fatal(err)
	}
	for name, pair := range map[string][2]*qmatch.Schema{
		"dtd-vs-jsonschema": {dtdSchema, jsSchema},
		"jsonschema-vs-ddl": {jsSchema, ddlSchema},
		"ddl-vs-dtd":        {ddlSchema, dtdSchema},
	} {
		report := qmatch.Match(pair[0], pair[1])
		found := map[string]bool{}
		for _, c := range report.Correspondences {
			parts := strings.Split(c.Source, "/")
			found[parts[len(parts)-1]] = true
		}
		for _, want := range []string{"Title", "Author", "Year"} {
			if !found[want] {
				t.Errorf("%s: no correspondence for %s (got %v)", name, want, report.Correspondences)
			}
		}
	}
}

// doctypeXSD opens with a DOCTYPE, as the W3C's XMLSchema.xsd does. Its
// internal subset holds a '>' inside an entity value and an apostrophe
// in a comment, and neither may end the declaration.
const doctypeXSD = `<?xml version="1.0"?>
<!DOCTYPE xs:schema PUBLIC "-//W3C//DTD XMLSCHEMA 200102//EN" "XMLSchema.dtd" [
<!-- the schema's own entities -->
<!ENTITY arrow "->">
<!ATTLIST xs:schema id ID #IMPLIED>
]>
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="Book">
    <xs:complexType><xs:sequence>
      <xs:element name="Title" type="xs:string"/>
      <xs:element name="Year" type="xs:gYear"/>
    </xs:sequence></xs:complexType>
  </xs:element>
</xs:schema>`

// doctypeXML is an instance document with a SYSTEM DOCTYPE.
const doctypeXML = `<?xml version="1.0"?>
<!DOCTYPE note SYSTEM "note.dtd">
<note><to>Tove</to><from>Jani</from></note>`

func TestDetectFormat(t *testing.T) {
	cases := []struct {
		name, input string
		want        qmatch.Format
	}{
		{"json object", bookJSONSchema, qmatch.FormatJSONSchema},
		{"dtd", bookDTD, qmatch.FormatDTD},
		{"dtd after comment", "<!-- c -->\n<!ELEMENT a (b)>", qmatch.FormatDTD},
		{"xsd", `<xs:schema xmlns:xs="x"/>`, qmatch.FormatXSD},
		{"xsd no prefix", `<schema/>`, qmatch.FormatXSD},
		{"xsd after declaration", "\xEF\xBB\xBF<?xml version=\"1.0\"?><xsd:schema/>", qmatch.FormatXSD},
		{"xml instance", bookXML, qmatch.FormatXML},
		{"xml with declaration", `<?xml version="1.0"?><Book/>`, qmatch.FormatXML},
		{"ddl", bookDDL, qmatch.FormatDDL},
		{"ddl after comment", "-- schema\n/* x */ create table t (a int);", qmatch.FormatDDL},
		{"xsd after doctype", doctypeXSD, qmatch.FormatXSD},
		{"xml after doctype", doctypeXML, qmatch.FormatXML},
	}
	for _, tc := range cases {
		got, err := qmatch.DetectFormat([]byte(tc.input))
		if err != nil || got != tc.want {
			t.Errorf("%s: DetectFormat = %q, %v; want %q", tc.name, got, err, tc.want)
		}
	}
}

func TestDetectFormatUnknown(t *testing.T) {
	for _, input := range []string{"", "   ", "SELECT 1;", "garbage input here", "-- only a comment", "<!DOCTYPE a [<!ENTITY b '>'>"} {
		_, err := qmatch.DetectFormat([]byte(input))
		if err == nil {
			t.Errorf("%q: no error", input)
			continue
		}
		if !errors.Is(err, qmatch.ErrUnknownFormat) {
			t.Errorf("%q: error %v does not match ErrUnknownFormat", input, err)
		}
	}
	// The typed error carries the sniffed prefix for diagnostics.
	_, err := qmatch.DetectFormat([]byte("garbage input here"))
	var ufe *qmatch.UnknownFormatError
	if !errors.As(err, &ufe) || ufe.Prefix != "garbage input here" {
		t.Fatalf("error %v does not carry the sniffed prefix", err)
	}
	if !strings.Contains(err.Error(), `"garbage input here"`) {
		t.Fatalf("message %q does not show the prefix", err)
	}
}

func TestParseAuto(t *testing.T) {
	for input, want := range map[string]qmatch.Format{
		bookJSONSchema: qmatch.FormatJSONSchema,
		bookDTD:        qmatch.FormatDTD,
		bookDDL:        qmatch.FormatDDL,
		bookXML:        qmatch.FormatXML,
		doctypeXSD:     qmatch.FormatXSD,
		doctypeXML:     qmatch.FormatXML,
	} {
		s, format, err := qmatch.ParseAuto([]byte(input))
		if err != nil || format != want {
			t.Errorf("ParseAuto: format %q err %v, want %q", format, err, want)
			continue
		}
		if s.Size() == 0 {
			t.Errorf("%s: empty schema", want)
		}
	}
	if _, _, err := qmatch.ParseAuto([]byte("no schema here")); !errors.Is(err, qmatch.ErrUnknownFormat) {
		t.Fatalf("ParseAuto on junk: %v", err)
	}
}

// Parse is the one route from a format name to a front end: every name,
// alias and "auto", in any case, builds the tree the front end builds
// when called directly, and LoadSchema reads each extension as Parse
// reads the format FormatOf names.
func TestParseRouting(t *testing.T) {
	type doc struct {
		format     qmatch.Format
		names      []qmatch.Format
		data, root string
		direct     func(data, root string) (*xmltree.Node, error)
		ext        string
	}
	xsdDoc := func(name string) doc {
		tree, err := dataset.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return doc{qmatch.FormatXSD, []qmatch.Format{"", "xsd", "XSD"}, xsd.Render(tree), "",
			func(data, _ string) (*xmltree.Node, error) { return xsd.ParseString(data) }, ".xsd"}
	}
	registryDoc := func(file string) (data, root string) {
		raw, err := os.ReadFile(filepath.Join("testdata", file))
		if err != nil {
			t.Fatal(err)
		}
		var put struct{ Schema struct{ Data, Root string } }
		if err := json.Unmarshal(raw, &put); err != nil {
			t.Fatal(err)
		}
		return put.Schema.Data, put.Schema.Root
	}
	jsData, _ := registryDoc("registry_put_po_jsonschema.json")
	ddlData, ddlRoot := registryDoc("registry_put_po_ddl.json")
	docs := []doc{
		xsdDoc("PO1"), xsdDoc("Book"), xsdDoc("DCMDOrd"),
		{qmatch.FormatDTD, []qmatch.Format{"dtd", "DTD"}, bookDTD, "", dtd.ParseString, ".dtd"},
		{qmatch.FormatXML, []qmatch.Format{"xml", "XML"}, bookXML, "",
			func(data, _ string) (*xmltree.Node, error) { return infer.InferString(data) }, ".xml"},
		{qmatch.FormatJSONSchema, []qmatch.Format{"jsonschema", "JSONSCHEMA", "json", "JSON"}, jsData, "",
			func(data, _ string) (*xmltree.Node, error) { return jsonschema.ParseString(data) }, ".json"},
		{qmatch.FormatDDL, []qmatch.Format{"ddl", "DDL", "sql", "SQL"}, ddlData, ddlRoot, ddl.ParseString, ".sql"},
	}
	dir := t.TempDir()
	for i, d := range docs {
		want, err := d.direct(d.data, d.root)
		if err != nil {
			t.Fatalf("%s %d: direct parse: %v", d.format, i, err)
		}
		for _, name := range append(d.names, "auto", "AUTO") {
			s, got, err := qmatch.Parse(d.data, name, d.root)
			if err != nil || got != d.format {
				t.Errorf("%s %d: Parse as %q: format %q, err %v", d.format, i, name, got, err)
				continue
			}
			if !xmltree.Equal(s.Tree(), want) {
				t.Errorf("%s %d: Parse as %q built another tree:\n%s\nwant:\n%s", d.format, i, name, s.Dump(), want.Dump())
			}
		}

		for _, ext := range []string{d.ext, strings.ToUpper(d.ext), ".schema"} {
			path := filepath.Join(dir, fmt.Sprintf("doc%d%s", i, ext))
			if err := os.WriteFile(path, []byte(d.data), 0o644); err != nil {
				t.Fatal(err)
			}
			root := ""
			if qmatch.FormatOf(path) == qmatch.FormatDDL {
				root = fmt.Sprintf("doc%d", i)
			}
			loaded, err := qmatch.LoadSchema(path)
			if err != nil {
				t.Fatalf("LoadSchema(%s): %v", path, err)
			}
			parsed, _, err := qmatch.Parse(d.data, qmatch.FormatOf(path), root)
			if err != nil {
				t.Fatalf("Parse as %q: %v", qmatch.FormatOf(path), err)
			}
			if !xmltree.Equal(loaded.Tree(), parsed.Tree()) {
				t.Errorf("LoadSchema(%s) differs from Parse as %q", path, qmatch.FormatOf(path))
			}
		}
	}

	// An explicit format never sniffs: a DTD sent as xsd fails in the XSD
	// decoder.
	_, wantErr := xsd.ParseString(bookDTD)
	if _, _, err := qmatch.Parse(bookDTD, qmatch.FormatXSD, ""); err == nil || wantErr == nil || err.Error() != wantErr.Error() {
		t.Errorf("DTD as xsd: error %v, want the XSD decoder's %v", err, wantErr)
	}
	_, _, err := qmatch.Parse(bookXML, "yaml", "")
	if !errors.Is(err, qmatch.ErrUnknownFormat) {
		t.Fatalf("format yaml: error %v does not match ErrUnknownFormat", err)
	}
	if !strings.Contains(err.Error(), "xsd, dtd, xml, jsonschema, ddl or auto") {
		t.Errorf("format yaml: error %q does not list the formats", err)
	}
}

// LoadSchema on an unknown extension sniffs the content; junk content
// surfaces the typed unknown-format error instead of an XSD parse error.
func TestLoadSchemaSniffed(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "book.json")
	sqlPath := filepath.Join(dir, "library.sql")
	sniffed := filepath.Join(dir, "book.schema")
	junk := filepath.Join(dir, "junk.bin")
	os.WriteFile(jsonPath, []byte(bookJSONSchema), 0o644)
	os.WriteFile(sqlPath, []byte(bookDDL), 0o644)
	os.WriteFile(sniffed, []byte(bookJSONSchema), 0o644)
	os.WriteFile(junk, []byte("\x00\x01binary junk"), 0o644)

	fromJSON, err := qmatch.LoadSchema(jsonPath)
	if err != nil || fromJSON.Name() != "Book" {
		t.Fatalf("json load: %v / %+v", err, fromJSON)
	}
	fromSQL, err := qmatch.LoadSchema(sqlPath)
	if err != nil || fromSQL.Name() != "library" {
		t.Fatalf("sql load: %v (DDL root should take the file's base name)", err)
	}
	fromSniffed, err := qmatch.LoadSchema(sniffed)
	if err != nil || fromSniffed.Name() != "Book" {
		t.Fatalf("sniffed load: %v", err)
	}
	if _, err := qmatch.LoadSchema(junk); !errors.Is(err, qmatch.ErrUnknownFormat) {
		t.Fatalf("junk load error = %v, want ErrUnknownFormat", err)
	}
}

// Every parser builds its tree through xmltree.Node.Add, so tree building
// must stay linear in the node count: a 100,000-column DDL table and a
// 100,000-leaf XSD element each parse in well under 2 s. Quadratic building
// took 13 s for 32,000 columns. The race detector slows parsing several
// times over, so CI runs this test in a step without it.
func TestLargeInputsParseLinear(t *testing.T) {
	if raceEnabled {
		t.Skip("timing bound; runs without -race")
	}
	const n = 100_000
	var ddl, xsd strings.Builder
	ddl.WriteString("CREATE TABLE wide (\n")
	xsd.WriteString(`<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema"><xs:element name="wide"><xs:complexType><xs:sequence>`)
	for i := 0; i < n; i++ {
		if i > 0 {
			ddl.WriteString(",\n")
		}
		fmt.Fprintf(&ddl, "  c%d INTEGER", i)
		fmt.Fprintf(&xsd, `<xs:element name="c%d" type="xs:int"/>`, i)
	}
	ddl.WriteString("\n);\n")
	xsd.WriteString(`</xs:sequence></xs:complexType></xs:element></xs:schema>`)
	for _, c := range []struct {
		name  string
		parse func() (*qmatch.Schema, error)
	}{
		{"ddl", func() (*qmatch.Schema, error) { return qmatch.ParseDDLString(ddl.String(), "wide") }},
		{"xsd", func() (*qmatch.Schema, error) { return qmatch.ParseSchemaString(xsd.String()) }},
	} {
		start := time.Now()
		s, err := c.parse()
		took := time.Since(start)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := s.Tree().Size(); got < n {
			t.Fatalf("%s: %d nodes, want at least %d", c.name, got, n)
		}
		if took > 2*time.Second {
			t.Errorf("%s: %d-leaf input parsed in %v, want under 2s", c.name, n, took)
		}
	}
}
