package core

import (
	"math"
	"testing"

	"qmatch/internal/dataset"
	"qmatch/internal/lingo"
	"qmatch/internal/synth"
	"qmatch/internal/xmltree"
)

func TestMatchPropertiesExact(t *testing.T) {
	a := xmltree.Elem("integer").WithOrder(1)
	b := xmltree.Elem("integer").WithOrder(1)
	q := MatchProperties(a, b)
	if q.Kind != lingo.Exact || q.Score != 1 {
		t.Fatalf("exact props = %+v", q)
	}
}

func TestMatchPropertiesRelaxedType(t *testing.T) {
	a := xmltree.Elem("int").WithOrder(1)
	b := xmltree.Elem("decimal").WithOrder(1) // decimal generalizes int
	q := MatchProperties(a, b)
	if q.Kind != lingo.Relaxed {
		t.Fatalf("relaxed type = %+v", q)
	}
	if q.Score <= 0 || q.Score >= 1 {
		t.Fatalf("score out of (0,1): %v", q.Score)
	}
}

func TestMatchPropertiesRelaxedOrder(t *testing.T) {
	a := xmltree.Elem("string").WithOrder(1)
	b := xmltree.Elem("string").WithOrder(3)
	q := MatchProperties(a, b)
	if q.Kind != lingo.Exact {
		// order differs → not exact
		if q.Kind != lingo.Relaxed {
			t.Fatalf("order mismatch kind = %v", q.Kind)
		}
	} else {
		t.Fatalf("order mismatch classified exact")
	}
}

func TestMatchPropertiesOccursGeneralization(t *testing.T) {
	// minOccurs=0 is a generalization of minOccurs=1 (paper example).
	a := xmltree.Elem("string").Optional().WithOrder(1)
	b := xmltree.Elem("string").WithOrder(1)
	q := MatchProperties(a, b)
	if q.Kind != lingo.Relaxed {
		t.Fatalf("occurs generalization = %+v", q)
	}
	// Disjoint occurrence ranges score zero on that property but the
	// axis stays relaxed overall (other properties match).
	c := xmltree.Properties{Type: "string", Order: 1, MinOccurs: 2, MaxOccurs: 2}
	d := xmltree.Properties{Type: "string", Order: 1, MinOccurs: 0, MaxOccurs: 1}
	q2 := MatchProperties(c, d)
	if q2.Kind != lingo.Relaxed {
		t.Fatalf("disjoint occurs = %+v", q2)
	}
	if q2.Score >= q.Score {
		t.Fatalf("disjoint occurs (%v) should score below generalization (%v)", q2.Score, q.Score)
	}
}

func TestMatchPropertiesElementVsAttribute(t *testing.T) {
	a := xmltree.Elem("string").WithOrder(1)
	b := xmltree.Attr("string").WithOrder(1)
	q := MatchProperties(a, b)
	if q.Kind != lingo.Relaxed {
		t.Fatalf("element vs attribute = %+v", q)
	}
}

func TestMatchPropertiesOptionalFacets(t *testing.T) {
	a := xmltree.Elem("string").WithOrder(1)
	a.Nillable = true
	b := xmltree.Elem("string").WithOrder(1)
	q := MatchProperties(a, b)
	if q.Kind == lingo.Exact {
		t.Fatal("nillable mismatch should not be exact")
	}
	// Facets absent on both sides do not participate.
	c := xmltree.Elem("string").WithOrder(1)
	d := xmltree.Elem("string").WithOrder(1)
	if got := MatchProperties(c, d); got.Kind != lingo.Exact {
		t.Fatalf("plain pair = %+v", got)
	}
	// Contradictory fixed values score zero on that property.
	e := xmltree.Elem("string").WithOrder(1)
	e.Fixed = "a"
	f := xmltree.Elem("string").WithOrder(1)
	f.Fixed = "b"
	qf := MatchProperties(e, f)
	if qf.Kind != lingo.Relaxed || qf.Score >= 1 {
		t.Fatalf("fixed contradiction = %+v", qf)
	}
	// Equal fixed values stay exact.
	g := xmltree.Elem("string").WithOrder(1)
	g.Fixed = "a"
	if got := MatchProperties(e, g); got.Kind != lingo.Exact {
		t.Fatalf("equal fixed = %+v", got)
	}
	// Use and default facets.
	h := xmltree.Attr("string").WithOrder(1)
	i := xmltree.Attr("string").WithOrder(1)
	i.Use = "optional"
	i.MinOccurs = 1 // keep occurs equal so only use differs
	if got := MatchProperties(h, i); got.Kind == lingo.Exact {
		t.Fatalf("use mismatch = %+v", got)
	}
	j := xmltree.Elem("string").WithOrder(1)
	j.Default = "x"
	k := xmltree.Elem("string").WithOrder(1)
	k.Default = "y"
	if got := MatchProperties(j, k); got.Kind == lingo.Exact {
		t.Fatalf("default mismatch = %+v", got)
	}
}

func TestMatchPropertiesNoneKind(t *testing.T) {
	// Everything disagrees without compensating matches is impossible
	// in practice (order relaxed always contributes), so None requires
	// a score of exactly zero; verify the kind logic via a crafted
	// comparison where all contributing scores are zero is unreachable,
	// and instead confirm None never appears with a positive score.
	a := xmltree.Elem("string").WithOrder(1)
	b := xmltree.Elem("date").WithOrder(1)
	q := MatchProperties(a, b)
	if q.Kind == lingo.None && q.Score > 0 {
		t.Fatalf("inconsistent kind/score: %+v", q)
	}
}

func TestMatchPropertiesSymmetric(t *testing.T) {
	a := xmltree.Elem("int").Optional().WithOrder(2)
	b := xmltree.Elem("decimal").Repeated().WithOrder(5)
	q1, q2 := MatchProperties(a, b), MatchProperties(b, a)
	if q1.Score != q2.Score || q1.Kind != q2.Kind {
		t.Fatalf("asymmetric: %+v vs %+v", q1, q2)
	}
}

// The kernel's property plane scores through the type table: every pair
// of the distinct property sets of the corpus schemas and of a synthetic
// pair must score bit-equal to MatchProperties. The sets are interned as
// one vocabulary on both sides and run through the kernel fill, so the
// check covers the type ids, the table and the tile layout.
func TestTypeTableMatchesMatchProperties(t *testing.T) {
	base := synth.Generate(synth.Config{Seed: 5, Elements: 400})
	variant, _ := synth.Derive(base, synth.Uniform(6, 0.3))
	roots := []*xmltree.Node{base, variant}
	for _, p := range dataset.Pairs() {
		roots = append(roots, p.Source, p.Target)
	}
	// Unset occurrences and namespace prefixes, which Norm and the type
	// canonicalization fold.
	seen := map[xmltree.Properties]bool{}
	var nodes []*xmltree.Node
	for _, p := range []xmltree.Properties{
		{Type: "xs:int"}, {Type: "int", MinOccurs: 1, MaxOccurs: 1},
		{Type: "xsd:decimal", MinOccurs: 0, MaxOccurs: 3},
		{Type: "anyType", MaxOccurs: xmltree.Unbounded},
		{Type: "CustomType", IsAttribute: true, Use: "optional", Fixed: "x"},
		{Nillable: true, Default: "0"},
	} {
		seen[p] = true
		nodes = append(nodes, xmltree.New("", p))
	}
	for _, r := range roots {
		r.Walk(func(n *xmltree.Node) bool {
			if !seen[n.Props] {
				seen[n.Props] = true
				nodes = append(nodes, xmltree.New("", n.Props))
			}
			return true
		})
	}
	in := Intern(nodes)
	b := new(kernelBuffers)
	k := newKernelFrom(in, in, b)
	if !k.fill(NewMatcher(nil), b, 1) {
		t.Fatal("fill stopped without a Done signal")
	}
	for i, a := range nodes {
		for j, b := range nodes {
			want := MatchProperties(a.Props, b.Props)
			s, kind := k.propAt(i, j)
			if math.Float64bits(s) != math.Float64bits(want.Score) || kind != want.Kind {
				t.Fatalf("(%+v, %+v): kernel (%v, %v), MatchProperties (%v, %v)", a.Props, b.Props, s, kind, want.Score, want.Kind)
			}
		}
	}
}
