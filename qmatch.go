// Package qmatch is a from-scratch Go implementation of QMatch, the hybrid
// XML Schema match algorithm of Claypool, Hegde and Tansalarak (ICDE 2005),
// together with the CUPID-style linguistic and structural baselines the
// paper evaluates against, an XML Schema parser, and the QoM (Quality of
// Match) taxonomy and weight model the algorithm is built on.
//
// The package is a thin façade over the implementation packages in
// internal/: parse (or build) two schemas, run Match, and inspect the
// returned Report.
//
//	src, _ := qmatch.ParseSchemaFile("po1.xsd")
//	tgt, _ := qmatch.ParseSchemaFile("po2.xsd")
//	report := qmatch.Match(src, tgt)
//	for _, c := range report.Correspondences {
//		fmt.Println(c)
//	}
//	fmt.Printf("schema QoM: %.2f\n", report.TreeQoM)
package qmatch

import (
	"fmt"
	"io"
	"os"
	"strings"

	"qmatch/internal/core"
	"qmatch/internal/linguistic"
	"qmatch/internal/match"
	"qmatch/internal/structural"
	"qmatch/internal/xmltree"
	"qmatch/internal/xsd"
)

// Schema is a parsed XML schema tree.
type Schema struct {
	root *xmltree.Node
}

// ParseSchema reads an XML Schema document and returns the schema rooted at
// its first global element declaration.
func ParseSchema(r io.Reader) (*Schema, error) {
	root, err := xsd.Parse(r)
	if err != nil {
		return nil, err
	}
	return &Schema{root: root}, nil
}

// ParseSchemaString is ParseSchema over a string.
func ParseSchemaString(s string) (*Schema, error) {
	return ParseSchema(strings.NewReader(s))
}

// ParseSchemaFile is ParseSchema over a file path.
func ParseSchemaFile(path string) (*Schema, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("qmatch: %w", err)
	}
	defer f.Close()
	return ParseSchema(f)
}

// Name returns the label of the schema's root element.
func (s *Schema) Name() string { return s.root.Label }

// Size returns the number of elements (and attributes) in the schema.
func (s *Schema) Size() int { return s.root.Size() }

// MaxDepth returns the schema tree's maximum nesting depth.
func (s *Schema) MaxDepth() int { return s.root.MaxDepth() }

// Paths returns every element path in document order.
func (s *Schema) Paths() []string {
	var out []string
	s.root.Walk(func(n *xmltree.Node) bool {
		out = append(out, n.Path())
		return true
	})
	return out
}

// Dump renders an indented view of the schema tree.
func (s *Schema) Dump() string { return s.root.Dump() }

// XSD renders the schema back to an XML Schema document.
func (s *Schema) XSD() string { return xsd.Render(s.root) }

// Tree exposes the underlying schema tree for advanced use alongside the
// internal packages (examples, benchmarks, tooling inside this module).
func (s *Schema) Tree() *xmltree.Node { return s.root }

// FromTree wraps an existing schema tree.
func FromTree(root *xmltree.Node) *Schema { return &Schema{root: root} }

// Correspondence is one predicted element mapping. The JSON tags define
// the stable wire format shared by the command-line tools and services
// (see DESIGN.md); WriteJSON/ReadReportJSON round-trip it.
type Correspondence struct {
	Source string  `json:"source"`
	Target string  `json:"target"`
	Score  float64 `json:"score"`
}

// String renders "PO/OrderNo -> PurchaseOrder/OrderNo (0.93)".
func (c Correspondence) String() string {
	return fmt.Sprintf("%s -> %s (%.2f)", c.Source, c.Target, c.Score)
}

// Report is the outcome of matching two schemas. The JSON tags define the
// stable wire format shared by the command-line tools and services.
type Report struct {
	// Algorithm that produced the report ("hybrid", "linguistic",
	// "structural", "cupid").
	Algorithm string `json:"algorithm"`
	// Correspondences are the selected one-to-one element mappings,
	// sorted by descending score.
	Correspondences []Correspondence `json:"correspondences"`
	// TreeQoM is the overall match value of the two schema roots — the
	// "total match value presented to the user" of the paper.
	TreeQoM float64 `json:"treeQoM"`
	// Trace is the per-phase pipeline trace of this match. Only Engines
	// built with Observer.Tracing attach one; it is omitted from the wire
	// format otherwise.
	Trace *MatchTrace `json:"trace,omitempty"`
	// Rematch breaks down the copied-vs-rescored work of an incremental
	// re-match; only Engine.Rematch reports attach it.
	Rematch *RematchStats `json:"rematch,omitempty"`

	// state is the retained pair table of a WithRematchState compiled-path
	// match — the seed Engine.Rematch reuses.
	state *rematchState
}

// Match matches the source schema against the target schema with the
// hybrid QMatch algorithm (or a configured alternative) and returns the
// report. Option-less calls share one lazily-built default Engine (warm
// thesaurus and matcher pool are reused across calls); calls
// with options build a throwaway Engine — services with a fixed non-default
// configuration should build one Engine with NewEngine and reuse it. Match
// panics with the error NewEngine would return when the options are
// invalid (unknown algorithm, negative or all-zero weights, thresholds
// outside [0,1], negative parallelism).
func Match(src, tgt *Schema, opts ...Option) *Report {
	return engineFor(opts).Match(src, tgt)
}

// QoMBreakdown returns the full per-axis QoM of the two schema roots under
// the hybrid model: label, properties, level and children axis scores, the
// weighted value, and the taxonomy classification ("total exact", "total
// relaxed", "partial exact", "partial relaxed", "no match").
type QoMBreakdown struct {
	Label, Properties, Level, Children float64
	Value                              float64
	Class                              string
}

// QoM computes the hybrid QoM breakdown for two schemas. Option semantics
// are identical to Match, including the shared default Engine on
// option-less calls and the panic on invalid options.
func QoM(src, tgt *Schema, opts ...Option) QoMBreakdown {
	return engineFor(opts).QoM(src, tgt)
}

// ComplexCorrespondence maps one source element to a combination of
// sibling target elements (a 1:n split such as Name ↔ FirstName +
// LastName). The JSON tags define the stable wire format shared by the
// command-line tools and services.
type ComplexCorrespondence struct {
	Source  string   `json:"source"`
	Targets []string `json:"targets"`
	Score   float64  `json:"score"`
}

// String renders "Record/AuthorName -> {FirstName, LastName} (0.95)".
func (c ComplexCorrespondence) String() string {
	return match.ComplexCorrespondence{
		Source: c.Source, Targets: c.Targets, Score: c.Score,
	}.String()
}

// MatchComplex runs the 1:n complex-correspondence pass over the elements
// a 1:1 report left unmatched: source leaves that correspond to a
// combination of sibling target leaves (shared head token, qualifier
// coverage). Pass the Report of a prior Match call so already-explained
// elements are excluded; a nil report searches the whole schemas.
func MatchComplex(src, tgt *Schema, report *Report, opts ...Option) []ComplexCorrespondence {
	return engineFor(opts).MatchComplex(src, tgt, report)
}

// ExplainTop returns human-readable derivations of the n best pairs' QoM
// under the hybrid model: per-axis scores and kinds, weighted
// contributions, and the per-child best matches behind the children axis.
func ExplainTop(src, tgt *Schema, n int, opts ...Option) string {
	return engineFor(opts).ExplainTop(src, tgt, n)
}

// Evaluation mirrors the paper's match-quality measures for a report
// against a reference mapping. The JSON tags define the stable wire
// format shared by the command-line tools and services.
type Evaluation struct {
	TruePositives  int     `json:"truePositives"`
	FalsePositives int     `json:"falsePositives"`
	Missed         int     `json:"missed"`
	Precision      float64 `json:"precision"`
	Recall         float64 `json:"recall"`
	Overall        float64 `json:"overall"`
	F1             float64 `json:"f1"`
}

// Evaluate scores a report against the real matches, given as
// source-path/target-path pairs.
func Evaluate(r *Report, real [][2]string) Evaluation {
	gold := match.NewGold(real...)
	pred := make([]match.Correspondence, len(r.Correspondences))
	for i, c := range r.Correspondences {
		pred[i] = match.Correspondence{Source: c.Source, Target: c.Target, Score: c.Score}
	}
	e := match.Evaluate(pred, gold)
	return Evaluation{
		TruePositives:  e.TruePositives,
		FalsePositives: e.FalsePositives,
		Missed:         e.Missed,
		Precision:      e.Precision,
		Recall:         e.Recall,
		Overall:        e.Overall,
		F1:             e.F1,
	}
}

// interface guards: the three algorithms stay interchangeable.
var (
	_ match.Algorithm = (*core.Hybrid)(nil)
	_ match.Algorithm = (*linguistic.Matcher)(nil)
	_ match.Algorithm = (*structural.Matcher)(nil)
)
