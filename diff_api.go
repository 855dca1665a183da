package qmatch

import "qmatch/internal/diff"

// DiffKind classifies one element's evolution between two schema versions.
type DiffKind string

// The evolution kinds.
const (
	DiffUnchanged DiffKind = "unchanged"
	DiffRenamed   DiffKind = "renamed"
	DiffModified  DiffKind = "modified"
	DiffMoved     DiffKind = "moved"
	DiffRemoved   DiffKind = "removed"
	DiffAdded     DiffKind = "added"
)

// DiffEntry is one element's evolution record.
type DiffEntry struct {
	Kind    DiffKind
	OldPath string
	NewPath string
	Detail  string
}

// DiffReport is the evolution analysis of two schema versions.
type DiffReport struct {
	Entries []DiffEntry

	inner *diff.Report
}

// Format renders the report grouped by kind; verbose includes unchanged
// elements.
func (r *DiffReport) Format(verbose bool) string { return r.inner.Format(verbose) }

// Diff aligns an old and a new schema version with the hybrid matcher and
// classifies every element as unchanged, renamed, modified, moved, removed
// or added — schema-evolution analysis built on schema matching.
func Diff(oldSchema, newSchema *Schema, opts ...Option) *DiffReport {
	cfg := newConfig()
	for _, o := range opts {
		o(cfg)
	}
	inner := diff.Schemas(oldSchema.root, newSchema.root, cfg.thesaurus())
	out := &DiffReport{inner: inner}
	for _, e := range inner.Entries {
		out.Entries = append(out.Entries, DiffEntry{
			Kind:    DiffKind(e.Kind.String()),
			OldPath: e.OldPath,
			NewPath: e.NewPath,
			Detail:  e.Detail,
		})
	}
	return out
}
