package qmatch

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"qmatch/internal/ddl"
	"qmatch/internal/dtd"
	"qmatch/internal/infer"
	"qmatch/internal/jsonschema"
	"qmatch/internal/xmltree"
	"qmatch/internal/xsd"
)

// ParseDTDString reads a Document Type Definition and returns the schema
// rooted at the named element (or the first declared element when root
// is empty).
func ParseDTDString(s, root string) (*Schema, error) { return schemaOf(Parse(s, FormatDTD, root)) }

// InferSchemaString derives a schema from an XML instance document — for
// matching against documents that ship without any schema.
func InferSchemaString(s string) (*Schema, error) { return schemaOf(Parse(s, FormatXML, "")) }

// ParseJSONSchemaString reads a JSON Schema document (draft-07 subset:
// see internal/jsonschema) and returns the schema rooted at an element
// labeled with the document's title.
func ParseJSONSchemaString(s string) (*Schema, error) {
	return schemaOf(Parse(s, FormatJSONSchema, ""))
}

// ParseDDLString reads SQL CREATE TABLE statements and returns the
// database → table → column schema tree, rooted at an element labeled
// name ("" = "db").
func ParseDDLString(s, name string) (*Schema, error) { return schemaOf(Parse(s, FormatDDL, name)) }

// schemaOf drops the format Parse reports.
func schemaOf(s *Schema, _ Format, err error) (*Schema, error) { return s, err }

// Format identifies a schema ingestion front-end.
type Format string

// The ingestion formats every entry point (CLIs, qmatchd, registry)
// accepts, and FormatAuto, which sniffs one of them from the content.
const (
	FormatXSD        Format = "xsd"        // XML Schema
	FormatDTD        Format = "dtd"        // Document Type Definition
	FormatXML        Format = "xml"        // schema inferred from an XML instance
	FormatJSONSchema Format = "jsonschema" // JSON Schema (draft-07 subset)
	FormatDDL        Format = "ddl"        // SQL CREATE TABLE statements
	FormatAuto       Format = "auto"       // detected by DetectFormat
)

// ErrUnknownFormat reports a format name that Parse does not know, or
// input whose schema format could not be detected. Errors returned by
// Parse, DetectFormat and ParseAuto for either match it with errors.Is;
// a detection failure carries the sniffed input prefix in its message.
var ErrUnknownFormat = errors.New("unknown schema format")

// UnknownFormatError is the typed detection failure: Prefix holds the
// start of the (trimmed) input that no front-end recognized.
type UnknownFormatError struct {
	Prefix string
}

func (e *UnknownFormatError) Error() string {
	return fmt.Sprintf("qmatch: unknown schema format (want xsd, dtd, xml, jsonschema or ddl; input begins %q)", e.Prefix)
}

// Is makes errors.Is(err, ErrUnknownFormat) true for detection failures.
func (e *UnknownFormatError) Is(target error) bool { return target == ErrUnknownFormat }

// DetectFormat sniffs the schema format from the document content: "{"
// opens a JSON Schema, "<!" a DTD, a root tag whose name ends in
// "schema" an XSD, any other XML an instance document, and a leading
// CREATE keyword DDL. Comments, processing instructions and a
// <!DOCTYPE> declaration are skipped before sniffing, so an XSD or an
// instance document with a DOCTYPE is told by its root tag.
// Unrecognizable input returns an *UnknownFormatError (errors.Is-matchable
// against ErrUnknownFormat).
func DetectFormat(data []byte) (Format, error) { return detect(string(data)) }

func detect(data string) (Format, error) {
	rest := skipPreamble(data)
	switch {
	case len(rest) == 0:
		return "", &UnknownFormatError{Prefix: ""}
	case rest[0] == '{':
		return FormatJSONSchema, nil
	case strings.HasPrefix(rest, "<!"):
		return FormatDTD, nil
	case rest[0] == '<':
		name := tagName(rest[1:])
		if n := strings.ToLower(name); n == "schema" || strings.HasSuffix(n, ":schema") {
			return FormatXSD, nil
		}
		return FormatXML, nil
	}
	if word := leadingWord(rest); strings.EqualFold(word, "CREATE") {
		return FormatDDL, nil
	}
	return "", &UnknownFormatError{Prefix: sniffPrefix(rest)}
}

// skipPreamble drops a UTF-8 BOM, whitespace, XML processing
// instructions, a document type declaration, and XML/SQL comments —
// none of them identify a format. It returns "" when one never closes.
func skipPreamble(data string) string {
	data = strings.TrimPrefix(data, "\xEF\xBB\xBF")
	for {
		data = strings.TrimLeft(data, " \t\r\n")
		switch {
		case strings.HasPrefix(data, "<?"):
			end := strings.Index(data, "?>")
			if end < 0 {
				return ""
			}
			data = data[end+2:]
		case strings.HasPrefix(data, "<!--"):
			end := strings.Index(data, "-->")
			if end < 0 {
				return ""
			}
			data = data[end+3:]
		case strings.HasPrefix(data, "<!DOCTYPE"):
			data = skipDoctype(data)
			if data == "" {
				return ""
			}
		case strings.HasPrefix(data, "--"):
			nl := strings.IndexByte(data, '\n')
			if nl < 0 {
				return ""
			}
			data = data[nl+1:]
		case strings.HasPrefix(data, "/*"):
			end := strings.Index(data, "*/")
			if end < 0 {
				return ""
			}
			data = data[end+2:]
		default:
			return data
		}
	}
}

// skipDoctype returns what follows the <!DOCTYPE declaration data opens
// with, or "" when it never closes. A '>' inside a quoted literal, a
// comment or the bracketed internal subset does not close it.
func skipDoctype(data string) string {
	subset := false
	for i := len("<!DOCTYPE"); i < len(data); i++ {
		switch c := data[i]; {
		case c == '"' || c == '\'':
			end := strings.IndexByte(data[i+1:], c)
			if end < 0 {
				return ""
			}
			i += 1 + end
		case strings.HasPrefix(data[i:], "<!--"):
			end := strings.Index(data[i+4:], "-->")
			if end < 0 {
				return ""
			}
			i += 4 + end + 2
		case c == '[':
			subset = true
		case c == ']':
			subset = false
		case c == '>' && !subset:
			return data[i+1:]
		}
	}
	return ""
}

// tagName reads an XML tag name (prefix included) from the byte after
// "<".
func tagName(data string) string {
	for i := 0; i < len(data); i++ {
		c := data[i]
		if c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '>' || c == '/' {
			return data[:i]
		}
	}
	return data
}

// leadingWord reads the first run of letters.
func leadingWord(data string) string {
	for i := 0; i < len(data); i++ {
		c := data[i]
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z') {
			return data[:i]
		}
	}
	return data
}

// sniffPrefix bounds the input excerpt an UnknownFormatError reports.
func sniffPrefix(data string) string {
	const max = 32
	if len(data) > max {
		data = data[:max]
	}
	return data
}

// ParseAuto detects the schema format of data (DetectFormat) and parses
// it with the matching front-end, reporting which format was used. The
// DDL database label and DTD root fall back to their defaults.
func ParseAuto(data []byte) (*Schema, Format, error) {
	return Parse(string(data), FormatAuto, "")
}

// Parse reads one schema document in the named format and returns the
// schema with the format it was read in. Format names ignore case: ""
// reads as xsd, "json" as jsonschema, "sql" as ddl, and "auto" detects
// the format with DetectFormat. root names the DTD root element ("" =
// the first declared element) or the DDL database label ("" = "db");
// the other formats ignore it. An unknown format name, or auto input of
// no known format, fails with an error matching ErrUnknownFormat.
func Parse(data string, format Format, root string) (*Schema, Format, error) {
	name := Format(strings.ToLower(string(format)))
	if name == FormatAuto {
		var err error
		if name, err = detect(data); err != nil {
			return nil, "", err
		}
	}
	var (
		tree *xmltree.Node
		err  error
	)
	switch name {
	case "", FormatXSD:
		name = FormatXSD
		tree, err = xsd.ParseString(data)
	case FormatDTD:
		tree, err = dtd.ParseString(data, root)
	case FormatXML:
		tree, err = infer.InferString(data)
	case FormatJSONSchema, "json":
		name = FormatJSONSchema
		tree, err = jsonschema.ParseString(data)
	case FormatDDL, "sql":
		name = FormatDDL
		tree, err = ddl.ParseString(data, root)
	default:
		return nil, "", fmt.Errorf("qmatch: %w %q (want xsd, dtd, xml, jsonschema, ddl or auto)", ErrUnknownFormat, format)
	}
	if err != nil {
		return nil, name, err
	}
	return &Schema{root: tree}, name, nil
}

// FormatOf returns the format LoadSchema reads path in, from its
// extension: .xsd XML Schema, .dtd DTD, .xml an instance document, .json
// JSON Schema, .sql and .ddl SQL DDL. Any other extension gives
// FormatAuto.
func FormatOf(path string) Format {
	switch strings.ToLower(filepath.Ext(path)) {
	case ".xsd":
		return FormatXSD
	case ".dtd":
		return FormatDTD
	case ".xml":
		return FormatXML
	case ".json":
		return FormatJSONSchema
	case ".sql", ".ddl":
		return FormatDDL
	}
	return FormatAuto
}

// LoadSchema loads a schema from a file in the format FormatOf gives its
// extension: a DTD is rooted at its first declared element, and a DDL
// database is labeled after the file's base name. Other extensions are
// sniffed from the content (DetectFormat); unrecognizable content fails
// with an error matching ErrUnknownFormat. Every error names the file.
func LoadSchema(path string) (*Schema, error) { return loadSchema(path, FormatOf(path)) }

// loadSchema reads path and parses it in format. os.ReadFile's error
// already names the path; a parse error gets it here.
func loadSchema(path string, format Format) (*Schema, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	root := ""
	if format == FormatDDL {
		base := filepath.Base(path)
		root = strings.TrimSuffix(base, filepath.Ext(base))
	}
	s, _, err := Parse(string(data), format, root)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
