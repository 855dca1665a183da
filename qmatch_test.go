package qmatch_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"qmatch"
	"qmatch/internal/dataset"
	"qmatch/internal/xsd"
)

// poPairXSD renders the corpus PO pair to XSD so the façade tests exercise
// the full parse → match → evaluate flow.
func poPairXSD(t *testing.T) (src, tgt *qmatch.Schema) {
	t.Helper()
	s, err := qmatch.ParseSchemaString(xsd.Render(dataset.PO1()))
	if err != nil {
		t.Fatal(err)
	}
	g, err := qmatch.ParseSchemaString(xsd.Render(dataset.PO2()))
	if err != nil {
		t.Fatal(err)
	}
	return s, g
}

func TestMatchEndToEnd(t *testing.T) {
	src, tgt := poPairXSD(t)
	if src.Name() != "PO" || src.Size() != 10 || src.MaxDepth() != 3 {
		t.Fatalf("source parsed wrong: %s/%d/%d", src.Name(), src.Size(), src.MaxDepth())
	}
	report := qmatch.Match(src, tgt)
	if report.Algorithm != "hybrid" {
		t.Fatalf("algorithm = %s", report.Algorithm)
	}
	if len(report.Correspondences) == 0 {
		t.Fatal("no correspondences")
	}
	// Sorted by descending score.
	for i := 1; i < len(report.Correspondences); i++ {
		if report.Correspondences[i].Score > report.Correspondences[i-1].Score {
			t.Fatal("correspondences not sorted")
		}
	}
	// The paper's exact pair leads.
	best := report.Correspondences[0]
	if best.Source != "PO/OrderNo" || best.Target != "PurchaseOrder/OrderNo" || best.Score != 1 {
		t.Fatalf("best = %v", best)
	}
	if report.TreeQoM <= 0.5 || report.TreeQoM >= 1 {
		t.Fatalf("tree QoM = %v", report.TreeQoM)
	}
}

func TestMatchAlgorithmSelection(t *testing.T) {
	src, tgt := poPairXSD(t)
	for _, a := range []qmatch.Algorithm{qmatch.Hybrid, qmatch.Linguistic, qmatch.Structural, qmatch.Cupid} {
		r := qmatch.Match(src, tgt, qmatch.WithAlgorithm(a))
		if r.Algorithm != string(a) {
			t.Errorf("algorithm = %s, want %s", r.Algorithm, a)
		}
		if len(r.Correspondences) == 0 {
			t.Errorf("%s found nothing", a)
		}
		// Descending score, then ascending source path.
		for i := 1; i < len(r.Correspondences); i++ {
			p, c := r.Correspondences[i-1], r.Correspondences[i]
			if c.Score > p.Score || (c.Score == p.Score && c.Source < p.Source) {
				t.Errorf("%s: correspondence %d %v out of order after %v", a, i, c, p)
			}
		}
	}
}

func TestEvaluate(t *testing.T) {
	src, tgt := poPairXSD(t)
	report := qmatch.Match(src, tgt)
	gold := [][2]string{
		{"PO/OrderNo", "PurchaseOrder/OrderNo"},
		{"PO/PurchaseDate", "PurchaseOrder/Date"},
	}
	e := qmatch.Evaluate(report, gold)
	if e.Recall != 1 {
		t.Fatalf("recall = %v (eval %+v)", e.Recall, e)
	}
	if e.Precision <= 0 || e.Precision > 1 {
		t.Fatalf("precision = %v", e.Precision)
	}
	if e.F1 <= 0 {
		t.Fatalf("f1 = %v", e.F1)
	}
}

func TestQoMBreakdown(t *testing.T) {
	src, tgt := poPairXSD(t)
	q := qmatch.QoM(src, tgt)
	if q.Class != "total relaxed" {
		t.Fatalf("class = %q", q.Class)
	}
	if q.Label <= 0 || q.Children <= 0 || q.Value <= 0 {
		t.Fatalf("breakdown = %+v", q)
	}
	if q.Level != 0 { // heights 3 vs 2
		t.Fatalf("level = %v", q.Level)
	}
}

func TestWithWeights(t *testing.T) {
	src, tgt := poPairXSD(t)
	labelOnly := qmatch.QoM(src, tgt, qmatch.WithWeights(qmatch.Weights{Label: 1}))
	allChildren := qmatch.QoM(src, tgt, qmatch.WithWeights(qmatch.Weights{Children: 1}))
	if labelOnly.Value == allChildren.Value {
		t.Fatal("weights had no effect")
	}
}

func TestWithSelectionThreshold(t *testing.T) {
	src, tgt := poPairXSD(t)
	strict := qmatch.Match(src, tgt, qmatch.WithSelectionThreshold(0.999))
	loose := qmatch.Match(src, tgt, qmatch.WithSelectionThreshold(0.75))
	if len(strict.Correspondences) >= len(loose.Correspondences) {
		t.Fatalf("threshold had no effect: %d vs %d",
			len(strict.Correspondences), len(loose.Correspondences))
	}
}

func TestWithChildThreshold(t *testing.T) {
	src, tgt := poPairXSD(t)
	q1 := qmatch.QoM(src, tgt, qmatch.WithChildThreshold(0))
	q2 := qmatch.QoM(src, tgt, qmatch.WithChildThreshold(0.99))
	if q1.Children <= q2.Children {
		t.Fatalf("child threshold had no effect: %v vs %v", q1.Children, q2.Children)
	}
}

func TestCustomThesaurus(t *testing.T) {
	src, err := qmatch.ParseSchemaString(`<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
	  <xs:element name="Gizmo" type="xs:string"/></xs:schema>`)
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := qmatch.ParseSchemaString(`<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
	  <xs:element name="Widget" type="xs:string"/></xs:schema>`)
	if err != nil {
		t.Fatal(err)
	}
	without := qmatch.Match(src, tgt)
	if len(without.Correspondences) != 0 {
		t.Fatalf("unrelated labels matched: %v", without.Correspondences)
	}
	th := qmatch.NewThesaurus()
	th.AddSynonym("gizmo", "widget")
	with := qmatch.Match(src, tgt, qmatch.WithThesaurus(th))
	if len(with.Correspondences) != 1 || with.Correspondences[0].Score != 1 {
		t.Fatalf("custom synonym ignored: %v", with.Correspondences)
	}
}

func TestWithoutBuiltinThesaurus(t *testing.T) {
	src, tgt := poPairXSD(t)
	full := qmatch.Match(src, tgt)
	bare := qmatch.Match(src, tgt, qmatch.WithoutBuiltinThesaurus())
	if len(bare.Correspondences) >= len(full.Correspondences) {
		t.Fatalf("builtin thesaurus removal had no effect: %d vs %d",
			len(bare.Correspondences), len(full.Correspondences))
	}
}

func TestParseSchemaFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "po.xsd")
	if err := os.WriteFile(path, []byte(xsd.Render(dataset.PO1())), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := qmatch.ParseSchemaFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "PO" {
		t.Fatalf("name = %s", s.Name())
	}
	if _, err := qmatch.ParseSchemaFile(filepath.Join(dir, "missing.xsd")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestSchemaAccessors(t *testing.T) {
	src, _ := poPairXSD(t)
	paths := src.Paths()
	if len(paths) != src.Size() {
		t.Fatalf("paths = %d", len(paths))
	}
	if paths[0] != "PO" {
		t.Fatalf("first path = %s", paths[0])
	}
	if !strings.Contains(src.Dump(), "Quantity") {
		t.Fatal("dump incomplete")
	}
	rendered := src.XSD()
	back, err := qmatch.ParseSchemaString(rendered)
	if err != nil {
		t.Fatal(err)
	}
	if back.Size() != src.Size() {
		t.Fatalf("XSD round trip size %d vs %d", back.Size(), src.Size())
	}
	tree := src.Tree()
	if tree == nil || qmatch.FromTree(tree).Name() != "PO" {
		t.Fatal("tree access broken")
	}
}

func TestCorrespondenceString(t *testing.T) {
	c := qmatch.Correspondence{Source: "a", Target: "b", Score: 0.5}
	if c.String() != "a -> b (0.50)" {
		t.Fatalf("String = %q", c.String())
	}
}
