// Cross-format metamorphic properties: the matcher's invariants must
// survive a change of ingestion front-end. The same synthetic tree
// rendered as XSD and as JSON Schema, or a database tree rendered as SQL
// DDL, parses into near-identical tree-model shapes — so swap symmetry,
// rename invariance and a self-match floor all extend across formats.
package qmatch_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"qmatch"
	"qmatch/internal/synth"
	"qmatch/internal/xmltree"
)

// jsonSchemaTypeOf reverses the JSON-Schema front-end's datatype mapping
// for the leaf types internal/synth generates: rendering a synth tree
// through it and parsing it back lands on the same datatype or a
// family-compatible one (int→integer, token→string).
func jsonSchemaTypeOf(xsdType string) (typ, format string) {
	switch xsdType {
	case "integer", "int":
		return "integer", ""
	case "decimal", "double":
		return "number", ""
	case "boolean":
		return "boolean", ""
	case "date":
		return "string", "date"
	case "dateTime":
		return "string", "date-time"
	case "anyURI":
		return "string", "uri"
	default: // string, token and anything else text-like
		return "string", ""
	}
}

// renderJSONSchema renders a synth tree (AttributeRatio must be 0 — JSON
// Schema has no attribute axis) as a draft-07 document. Properties are
// emitted in child order, required collects the minOccurs>0 children, and
// repeated children become array properties.
func renderJSONSchema(tree *xmltree.Node) string {
	var b strings.Builder
	fmt.Fprintf(&b, "{%q: %q, ", "title", tree.Label)
	renderJSONObject(&b, tree)
	b.WriteString("}")
	return b.String()
}

func renderJSONObject(b *strings.Builder, n *xmltree.Node) {
	b.WriteString(`"type": "object"`)
	if len(n.Children) == 0 {
		return
	}
	var required []string
	b.WriteString(`, "properties": {`)
	for i, c := range n.Children {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(b, "%q: ", c.Label)
		renderJSONProperty(b, c)
		if c.Props.MinOccurs > 0 {
			required = append(required, c.Label)
		}
	}
	b.WriteString("}")
	if len(required) > 0 {
		b.WriteString(`, "required": [`)
		for i, l := range required {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(b, "%q", l)
		}
		b.WriteString("]")
	}
}

func renderJSONProperty(b *strings.Builder, n *xmltree.Node) {
	if n.Props.MaxOccurs == xmltree.Unbounded {
		b.WriteString(`{"type": "array", "items": `)
		renderJSONScalar(b, n)
		b.WriteString("}")
		return
	}
	renderJSONScalar(b, n)
}

func renderJSONScalar(b *strings.Builder, n *xmltree.Node) {
	if len(n.Children) > 0 || n.Props.Type == "" {
		b.WriteString("{")
		renderJSONObject(b, n)
		b.WriteString("}")
		return
	}
	typ, format := jsonSchemaTypeOf(n.Props.Type)
	fmt.Fprintf(b, "{%q: %q", "type", typ)
	if format != "" {
		fmt.Fprintf(b, ", %q: %q", "format", format)
	}
	b.WriteString("}")
}

// jsonSchemaOf renders and re-parses a synth tree through the JSON-Schema
// front-end.
func jsonSchemaOf(t *testing.T, tree *xmltree.Node) *qmatch.Schema {
	t.Helper()
	s, err := qmatch.ParseJSONSchemaString(renderJSONSchema(tree))
	if err != nil {
		t.Fatalf("rendered JSON Schema does not parse: %v\n%s", err, renderJSONSchema(tree))
	}
	return s
}

// synthPairNoAttrs is synthPair constrained to the attribute-free trees
// both non-XML front-ends can express.
func synthPairNoAttrs(t *testing.T, seed int64) (*xmltree.Node, *xmltree.Node) {
	t.Helper()
	a := synth.Generate(synth.Config{Seed: seed, Elements: 22, MaxDepth: 4, MaxChildren: 5, AttributeRatio: 0})
	b, _ := synth.Derive(a, synth.MutationConfig{
		Seed:            seed + 1,
		RenameProb:      0.4,
		ReorderProb:     0.3,
		RetypeProb:      0.3,
		OptionalizeProb: 0.3,
	})
	return a, b
}

// Swap symmetry holds across front-ends too: matching an XSD rendering
// against a JSON-Schema rendering scores the same in both directions for
// the symmetric algorithms.
func TestMetamorphicCrossFormatSwapSymmetry(t *testing.T) {
	for _, alg := range []qmatch.Algorithm{qmatch.Hybrid, qmatch.Linguistic, qmatch.Cupid} {
		eng := newEngine(t, qmatch.WithAlgorithm(alg))
		for seed := int64(1); seed <= 4; seed++ {
			a, b := synthPairNoAttrs(t, seed)
			sa := schemaOf(t, a)     // XSD rendering of a
			jb := jsonSchemaOf(t, b) // JSON-Schema rendering of b
			fwd := eng.Match(sa, jb)
			rev := eng.Match(jb, sa)
			if d := fwd.TreeQoM - rev.TreeQoM; d > 1e-9 || d < -1e-9 {
				t.Errorf("%s seed %d: cross-format tree QoM not symmetric: %v vs %v",
					alg, seed, fwd.TreeQoM, rev.TreeQoM)
			}
			// |Rs| symmetry only binds where selection is tie-free:
			// cross-format datatype family hops (int→integer,
			// token→string) create near-tied pairs whose 1:1 greedy
			// resolution is direction-dependent under cupid.
			if alg != qmatch.Cupid && len(fwd.Correspondences) != len(rev.Correspondences) {
				t.Errorf("%s seed %d: cross-format |Rs| not symmetric: %d vs %d",
					alg, seed, len(fwd.Correspondences), len(rev.Correspondences))
			}
		}
	}
}

// The same tree ingested through the XSD and JSON-Schema front-ends must
// match itself nearly perfectly: labels, order and shape agree exactly,
// and datatypes land equal or in the same family (int→integer,
// token→string). The floor is deliberately high — a front-end change
// that skews the tree mapping (lost occurrence constraints, wrong
// datatype family) lands well below it.
func TestMetamorphicXSDJSONSchemaSelfMatchFloor(t *testing.T) {
	eng := newEngine(t)
	for seed := int64(1); seed <= 6; seed++ {
		a := synth.Generate(synth.Config{Seed: seed, Elements: 24, MaxDepth: 4, MaxChildren: 5, AttributeRatio: 0})
		sx := schemaOf(t, a)
		sj := jsonSchemaOf(t, a)
		if sx.Size() != sj.Size() {
			t.Fatalf("seed %d: front-ends disagree on size: xsd %d vs jsonschema %d\n%s\n%s",
				seed, sx.Size(), sj.Size(), sx.Dump(), sj.Dump())
		}
		report := eng.Match(sx, sj)
		if report.TreeQoM < 0.9 {
			t.Errorf("seed %d: XSD↔JSON-Schema self-match QoM %v below floor 0.9\n%s\n%s",
				seed, report.TreeQoM, sx.Dump(), sj.Dump())
		}
		// Every element must find its cross-format twin.
		if got, want := len(report.Correspondences), sx.Size(); got < want {
			t.Errorf("seed %d: only %d/%d self-correspondences", seed, got, want)
		}
	}
}

// ddlTypeOf reverses the DDL front-end's type table for the synth leaf
// vocabulary; the choice only needs to be deterministic, since rename
// invariance compares two parses of the same column set.
func ddlTypeOf(xsdType string) string {
	switch xsdType {
	case "integer", "int":
		return "INT"
	case "decimal":
		return "DECIMAL(10,2)"
	case "double":
		return "DOUBLE"
	case "boolean":
		return "BOOLEAN"
	case "date":
		return "DATE"
	case "dateTime":
		return "TIMESTAMP"
	default: // string, token, anyURI
		return "VARCHAR(100)"
	}
}

// genDBTree builds a deterministic database tree (db → tables → typed
// columns) in the exact shape the DDL front-end emits, with synth-style
// labels unique per scope.
func genDBTree(seed int64) *xmltree.Node {
	rng := rand.New(rand.NewSource(seed))
	db := xmltree.New(fmt.Sprintf("db%d", seed), xmltree.Properties{MinOccurs: 1, MaxOccurs: 1})
	types := []string{"string", "integer", "int", "decimal", "double", "boolean", "date", "dateTime", "token"}
	nouns := []string{"Order", "Customer", "Invoice", "Product", "Shipment", "Payment", "Account", "Line"}
	for ti, tables := 0, 2+rng.Intn(3); ti < tables; ti++ {
		table := xmltree.New(fmt.Sprintf("%ss%d", nouns[rng.Intn(len(nouns))], ti),
			xmltree.Properties{MinOccurs: 0, MaxOccurs: xmltree.Unbounded})
		for ci, cols := 0, 2+rng.Intn(5); ci < cols; ci++ {
			props := xmltree.Properties{Type: types[rng.Intn(len(types))], MinOccurs: 0, MaxOccurs: 1}
			if ci == 0 {
				props.Use = "key"
				props.MinOccurs = 1
			} else if rng.Float64() < 0.4 {
				props.MinOccurs = 1
			}
			table.Add(xmltree.New(fmt.Sprintf("%s%d", nouns[rng.Intn(len(nouns))], ci), props))
		}
		db.Add(table)
	}
	return db
}

// renderDDL renders a database tree back to CREATE TABLE statements.
func renderDDL(db *xmltree.Node) string {
	var b strings.Builder
	for _, table := range db.Children {
		fmt.Fprintf(&b, "CREATE TABLE %s (\n", table.Label)
		for i, col := range table.Children {
			if i > 0 {
				b.WriteString(",\n")
			}
			fmt.Fprintf(&b, "    %s %s", col.Label, ddlTypeOf(col.Props.Type))
			if col.Props.Use == "key" {
				b.WriteString(" PRIMARY KEY")
			} else if col.Props.MinOccurs > 0 {
				b.WriteString(" NOT NULL")
			}
		}
		b.WriteString("\n);\n")
	}
	return b.String()
}

func ddlSchemaOf(t *testing.T, db *xmltree.Node) *qmatch.Schema {
	t.Helper()
	s, err := qmatch.ParseDDLString(renderDDL(db), db.Label)
	if err != nil {
		t.Fatalf("rendered DDL does not parse: %v\n%s", err, renderDDL(db))
	}
	return s
}

// Rename invariance over DDL trees: consistently renaming every table and
// column (an opaque, injective relabeling of the whole database) must not
// change what a label-blind score sees. The renamed DDL text goes through
// the full front-end again, so the property also pins that the parser
// treats identifiers uniformly.
func TestMetamorphicDDLRenameInvariance(t *testing.T) {
	structural := newEngine(t, qmatch.WithAlgorithm(qmatch.Structural))
	labelBlind := newEngine(t, qmatch.WithWeights(qmatch.Weights{Label: 0, Properties: 0.4, Level: 0.3, Children: 0.3}))

	for seed := int64(1); seed <= 5; seed++ {
		a := genDBTree(seed)
		b := genDBTree(seed + 100)
		sigma := renamed(a, b)
		sa, sb := ddlSchemaOf(t, a), ddlSchemaOf(t, b)
		ra, rb := ddlSchemaOf(t, sigma[0]), ddlSchemaOf(t, sigma[1])

		plain := structural.Match(sa, sb)
		ren := structural.Match(ra, rb)
		if plain.TreeQoM != ren.TreeQoM {
			t.Errorf("structural seed %d: DDL rename changed tree QoM: %v vs %v",
				seed, plain.TreeQoM, ren.TreeQoM)
		}

		// The pair table is label-blind, so its aggregate is exactly
		// invariant. |Rs| is not asserted here: database trees carry
		// many structurally identical columns (same type, same level,
		// no children), and the 1:1 greedy selection resolves those
		// exact ties in a label-dependent order.
		plain = labelBlind.Match(sa, sb)
		ren = labelBlind.Match(ra, rb)
		if plain.TreeQoM != ren.TreeQoM {
			t.Errorf("label-weight-0 seed %d: DDL rename changed tree QoM: %v vs %v",
				seed, plain.TreeQoM, ren.TreeQoM)
		}
	}
}

// A DDL database tree round-trips through render + parse unchanged: the
// rename-invariance property above compares parsed trees, so it is only
// meaningful if rendering is faithful in the first place.
func TestMetamorphicDDLRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		a := genDBTree(seed)
		parsed := ddlSchemaOf(t, a).Tree()
		var wantPaths, gotPaths []string
		a.Walk(func(n *xmltree.Node) bool { wantPaths = append(wantPaths, n.Path()); return true })
		parsed.Walk(func(n *xmltree.Node) bool { gotPaths = append(gotPaths, n.Path()); return true })
		if len(wantPaths) != len(gotPaths) {
			t.Fatalf("seed %d: round trip changed node count: %d vs %d", seed, len(wantPaths), len(gotPaths))
		}
		for i := range wantPaths {
			if wantPaths[i] != gotPaths[i] {
				t.Errorf("seed %d: path %d: %q vs %q", seed, i, wantPaths[i], gotPaths[i])
			}
		}
	}
}
