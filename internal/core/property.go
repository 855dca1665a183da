package core

import (
	"qmatch/internal/lingo"
	"qmatch/internal/xmltree"
)

// PropertyQoM is the outcome of comparing two property sets along the P
// axis: a numeric score in [0,1] and the taxonomy kind. Per the paper
// (§2.1), the axis matches exactly iff every constituent property matches
// exactly; the consensus is relaxed when individual properties are relaxed.
type PropertyQoM struct {
	Score float64
	Kind  lingo.Kind
}

// Per-property scores feeding the axis consensus.
const (
	propExact   = 1.0
	propRelaxed = 0.5
	propNone    = 0.0
)

// MatchProperties compares the constituent properties of two nodes:
//
//   - type: exact when equal (after prefix canonicalization); relaxed when
//     one generalizes the other or they share a datatype family;
//   - order: exact when equal, relaxed otherwise (paper: "a relaxed match
//     for the order property implies the order values are not equal");
//   - minOccurs/maxOccurs: exact when equal; relaxed when one constraint
//     generalizes the other (e.g. minOccurs=0 generalizes minOccurs=1);
//   - node kind (element vs attribute): exact when equal, relaxed otherwise;
//   - nillable / use / fixed / default participate only when either side
//     sets them, and are exact/relaxed on equality/inequality.
//
// The axis score is the mean of the per-property scores; the kind is Exact
// iff all properties are exact, None iff the score is 0, Relaxed otherwise.
func MatchProperties(a, b xmltree.Properties) PropertyQoM {
	a, b = a.Norm(), b.Norm()
	return matchNormed(&a, &b, typeScore(a.Type, b.Type))
}

// typeScore is the type property's score: exact when the types are equal
// (after prefix canonicalization), relaxed when they are compatible.
func typeScore(a, b string) float64 {
	switch {
	case xmltree.TypeEqual(a, b):
		return propExact
	case xmltree.TypeCompatible(a, b):
		return propRelaxed
	default:
		return propNone
	}
}

// matchNormed is MatchProperties over two Norm-canonicalized sets, given
// the typeScore of their types. The kernel's property plane calls it with
// the score of a type table that ran typeScore once per pair of distinct
// types.
func matchNormed(a, b *xmltree.Properties, typ float64) PropertyQoM {
	// At most 8 properties participate; a fixed array keeps this
	// hot-path function allocation-free.
	var scores [8]float64
	count := 0
	allExact := true
	add := func(s float64) {
		scores[count] = s
		count++
		if s != propExact {
			allExact = false
		}
	}

	add(typ)

	// Order.
	if a.Order == b.Order {
		add(propExact)
	} else {
		add(propRelaxed)
	}

	// Occurrence constraints (min and max judged together, as one
	// generalization relation).
	switch {
	case a.MinOccurs == b.MinOccurs && a.MaxOccurs == b.MaxOccurs:
		add(propExact)
	case xmltree.OccursGeneralizes(a.MinOccurs, a.MaxOccurs, b.MinOccurs, b.MaxOccurs),
		xmltree.OccursGeneralizes(b.MinOccurs, b.MaxOccurs, a.MinOccurs, a.MaxOccurs):
		add(propRelaxed)
	default:
		add(propNone)
	}

	// Node kind.
	if a.IsAttribute == b.IsAttribute {
		add(propExact)
	} else {
		add(propRelaxed)
	}

	// Optional facets: count only when declared on either side.
	if a.Nillable || b.Nillable {
		if a.Nillable == b.Nillable {
			add(propExact)
		} else {
			add(propRelaxed)
		}
	}
	if a.Use != "" || b.Use != "" {
		if a.Use == b.Use {
			add(propExact)
		} else {
			add(propRelaxed)
		}
	}
	if a.Fixed != "" || b.Fixed != "" {
		if a.Fixed == b.Fixed {
			add(propExact)
		} else {
			add(propNone) // contradictory value constraints
		}
	}
	if a.Default != "" || b.Default != "" {
		if a.Default == b.Default {
			add(propExact)
		} else {
			add(propRelaxed)
		}
	}

	total := 0.0
	for _, s := range scores[:count] {
		total += s
	}
	score := total / float64(count)
	kind := lingo.Relaxed
	switch {
	case allExact:
		kind = lingo.Exact
	case score == 0:
		kind = lingo.None
	}
	return PropertyQoM{Score: score, Kind: kind}
}
