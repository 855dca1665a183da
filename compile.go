package qmatch

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"sort"
	"time"

	"qmatch/internal/artifact"
	"qmatch/internal/core"
	"qmatch/internal/obs"
)

// CompiledSchema is a schema compiled once into everything a match needs:
// the tree, the interned label/property vocabularies of the similarity
// kernel, and a label-signature sketch for cheap corpus prefiltering.
// Compile it once (or Decode it from a stored artifact), then feed it to
// the Engine's *Compiled methods — they skip the parse and intern phases
// entirely, which is the win for registry workloads where the same schema
// is matched over and over.
//
// A CompiledSchema is immutable and goroutine-safe; the underlying tree
// must not be mutated after Compile.
type CompiledSchema struct {
	art    *artifact.Compiled
	schema *Schema
}

// CompileOption configures Compile.
type CompileOption func(*uint16)

// WithLabelTokens extends the prefilter vocabulary with the tokenized
// forms of compound labels ("ShipTo" contributes "ship" and "to"), so the
// corpus prefilter sees through naming-convention differences at the cost
// of a larger term set. The flag is baked into the artifact's encoding
// and content ID.
func WithLabelTokens() CompileOption {
	return func(flags *uint16) { *flags |= artifact.FlagLabelTokens }
}

// Compile compiles a schema into a reusable, serializable artifact. The
// schema is captured by reference and must not be mutated afterwards.
func Compile(s *Schema, opts ...CompileOption) (*CompiledSchema, error) {
	if s == nil {
		return nil, fmt.Errorf("qmatch: compile: nil schema")
	}
	var flags uint16
	for _, o := range opts {
		o(&flags)
	}
	art, err := artifact.Compile(s.root, flags)
	if err != nil {
		return nil, err
	}
	return &CompiledSchema{art: art, schema: s}, nil
}

// Artifact decode errors, re-exported from the artifact format layer for
// errors.Is matching without importing internal packages:
//
//	ErrArtifactMagic      the blob is not a qmatch schema artifact
//	ErrArtifactVersion    a format version this build does not speak
//	ErrArtifactTruncated  the blob ends inside the header or payload
//	ErrArtifactChecksum   the payload does not hash to its header sum
//	ErrArtifactMalformed  the payload checksums but violates the grammar,
//	                      or bytes follow the artifact
var (
	ErrArtifactMagic     = artifact.ErrMagic
	ErrArtifactVersion   = artifact.ErrVersion
	ErrArtifactTruncated = artifact.ErrTruncated
	ErrArtifactChecksum  = artifact.ErrChecksum
	ErrArtifactMalformed = artifact.ErrMalformed
)

// DecodeCompiled reads an artifact written by Encode and rebuilds the
// ready-to-match CompiledSchema, verifying format version and checksum
// first (see the ErrArtifact* sentinels for the failure modes). r must hold
// exactly one artifact: DecodeCompiled reads it to EOF, and any byte after
// the artifact is ErrArtifactMalformed.
func DecodeCompiled(r io.Reader) (*CompiledSchema, error) {
	art, err := artifact.Decode(r)
	if err != nil {
		return nil, err
	}
	return &CompiledSchema{art: art, schema: &Schema{root: art.Root}}, nil
}

// Encode writes the artifact in its versioned binary format. Decoding the
// bytes reproduces this CompiledSchema exactly, including its ID.
func (cs *CompiledSchema) Encode(w io.Writer) error {
	return artifact.Encode(w, cs.art)
}

// ID returns the artifact's content address — the hex SHA-256 of its
// canonical encoding. Two schemas with equal trees compiled with equal
// options share an ID, regardless of the XSD surface syntax they were
// parsed from.
func (cs *CompiledSchema) ID() string { return cs.art.ID() }

// Schema returns the schema view of the compiled tree — the value the
// parse-based Engine methods accept. The tree is shared, not copied.
func (cs *CompiledSchema) Schema() *Schema { return cs.schema }

// Name returns the label of the schema's root element.
func (cs *CompiledSchema) Name() string { return cs.schema.Name() }

// Size returns the number of elements (and attributes) in the schema.
func (cs *CompiledSchema) Size() int { return cs.schema.Size() }

// Terms returns the sorted prefilter vocabulary (lowercase labels, plus
// label tokens when compiled WithLabelTokens). The slice is shared;
// callers must not modify it.
func (cs *CompiledSchema) Terms() []string { return cs.art.Terms }

// Overlap scores the prefilter affinity of two compiled schemas in [0,1]:
// the Jaccard overlap of their term vocabularies. This is the blocking
// score the corpus search ranks candidates by before any full QoM runs.
func (cs *CompiledSchema) Overlap(o *CompiledSchema) float64 {
	return artifact.Overlap(cs.art, o.art)
}

// PrefilterTopK selects the k most promising corpus candidates for a
// query by vocabulary overlap, returning their corpus indices ordered by
// descending overlap (ties by ascending index). k <= 0 or k >= len(corpus)
// keeps every candidate. The prefilter never reorders the final result —
// Engine.RankCompiled ranks the survivors with the full QoM — so with
// k >= len(corpus) a compiled rank reproduces the exhaustive Rank order
// exactly.
func PrefilterTopK(query *CompiledSchema, corpus []*CompiledSchema, k int) []int {
	idx := make([]int, len(corpus))
	overlaps := make([]float64, len(corpus))
	for i, c := range corpus {
		idx[i] = i
		overlaps[i] = artifact.Overlap(query.art, c.art)
	}
	sort.SliceStable(idx, func(a, b int) bool {
		if overlaps[idx[a]] != overlaps[idx[b]] {
			return overlaps[idx[a]] > overlaps[idx[b]]
		}
		return idx[a] < idx[b]
	})
	if k > 0 && k < len(idx) {
		idx = idx[:k]
	}
	return idx
}

// Compile is the package-level Compile with the Engine's observability
// attached: when the Engine collects metrics, the compile wall time feeds
// the qmatch_phase_compile_ns counter alongside the match phases.
func (e *Engine) Compile(s *Schema, opts ...CompileOption) (*CompiledSchema, error) {
	start := time.Now()
	cs, err := Compile(s, opts...)
	if e.collect && err == nil {
		e.em.phaseNs[obs.PhaseCompile].Add(time.Since(start).Nanoseconds())
	}
	return cs, err
}

// MatchCompiled is Match over compiled schemas: the match starts directly
// at the pair-table phase, reusing each side's precompiled vocabulary.
// The Report is bit-identical to Match(src.Schema(), tgt.Schema()).
func (e *Engine) MatchCompiled(src, tgt *CompiledSchema) *Report {
	report, _ := e.match(context.Background(), src.schema, tgt.schema, src, tgt)
	return report
}

// MatchCompiledContext is MatchContext over compiled schemas; see
// MatchContext for the cancellation contract.
func (e *Engine) MatchCompiledContext(ctx context.Context, src, tgt *CompiledSchema) (*Report, error) {
	return e.match(ctx, src.schema, tgt.schema, src, tgt)
}

// RankCompiled is the corpus search: the vocabulary-overlap prefilter
// selects the k most promising corpus schemas (k <= 0 keeps all), and only
// those survivors pay for a full QoM match against the query. The result
// is the survivors ranked exactly as Engine.Rank would rank them — Ranked
// Index values refer to positions in the input corpus — so with k >=
// len(corpus) RankCompiled reproduces the exhaustive Rank order.
func (e *Engine) RankCompiled(ctx context.Context, query *CompiledSchema, corpus []*CompiledSchema, k int) ([]Ranked, error) {
	var keep []int
	if k > 0 && k < len(corpus) {
		start := time.Now()
		keep = PrefilterTopK(query, corpus, k)
		if e.collect {
			e.em.phaseNs[obs.PhasePrefilter].Add(time.Since(start).Nanoseconds())
		}
		// Rank the survivors in ascending corpus order so score ties
		// break by original index, exactly as the exhaustive Rank breaks
		// them.
		sort.Ints(keep)
	} else {
		// Every candidate survives: no overlap needs computing.
		keep = make([]int, len(corpus))
		for i := range keep {
			keep[i] = i
		}
	}
	sub := make([]*Schema, len(keep))
	tv := make([]*core.Interned, len(keep))
	for i, ci := range keep {
		sub[i], tv[i] = corpus[ci].schema, corpus[ci].art.Interned
	}
	rows, err := e.matchAll(ctx, []*Schema{query.schema}, sub, []*core.Interned{query.art.Interned}, tv, "rank",
		slog.String("query", query.Name()), slog.Int("corpus", len(corpus)))
	if err != nil {
		return nil, err
	}
	return ranked(rows[0], sub, keep), nil
}
