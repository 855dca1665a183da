package registry

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"qmatch"
	"qmatch/internal/dataset"
	"qmatch/internal/xmltree"
)

func compileT(t *testing.T, root *xmltree.Node) *qmatch.CompiledSchema {
	t.Helper()
	cs, err := qmatch.Compile(qmatch.FromTree(root))
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

func TestValidateID(t *testing.T) {
	for _, ok := range []string{"po1", "PO-2.v3", "a", "x_y", "0start"} {
		if err := ValidateID(ok); err != nil {
			t.Errorf("ValidateID(%q) = %v, want nil", ok, err)
		}
	}
	long := make([]byte, maxIDLen+1)
	for i := range long {
		long[i] = 'a'
	}
	for _, bad := range []string{"", ".hidden", "-lead", "a/b", "a b", "a\x00b", "ü", string(long)} {
		if err := ValidateID(bad); err == nil {
			t.Errorf("ValidateID(%q) accepted an invalid id", bad)
		}
	}
}

func TestMemoryPutGetDeleteList(t *testing.T) {
	reg, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	po1 := compileT(t, dataset.PO1())
	po2 := compileT(t, dataset.PO2())

	if err := reg.Put("po1", po1); err != nil {
		t.Fatal(err)
	}
	if err := reg.Put("po2", po2); err != nil {
		t.Fatal(err)
	}
	if err := reg.Put("bad/id", po1); err == nil {
		t.Error("Put accepted an invalid id")
	}
	if reg.Len() != 2 || !reg.Has("po1") || reg.Has("nope") {
		t.Errorf("unexpected registry state: len=%d", reg.Len())
	}

	got, err := reg.Get("po1")
	if err != nil || got != po1 {
		t.Errorf("Get(po1) = (%v, %v), want the stored schema", got, err)
	}
	if _, err := reg.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get(nope) err = %v, want ErrNotFound", err)
	}

	list := reg.List()
	if len(list) != 2 || list[0].ID != "po1" || list[1].ID != "po2" {
		t.Errorf("List = %+v, want po1, po2 in order", list)
	}
	if list[0].ContentID != po1.ID() || list[0].Size != po1.Size() || list[0].Name != po1.Name() {
		t.Errorf("entry metadata wrong: %+v", list[0])
	}

	if err := reg.Delete("po1"); err != nil {
		t.Fatal(err)
	}
	if err := reg.Delete("po1"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete err = %v, want ErrNotFound", err)
	}
	if reg.Len() != 1 {
		t.Errorf("Len after delete = %d, want 1", reg.Len())
	}
}

func TestDiskPersistence(t *testing.T) {
	dir := t.TempDir()
	reg, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Put("po1", compileT(t, dataset.PO1())); err != nil {
		t.Fatal(err)
	}
	if err := reg.Put("book", compileT(t, dataset.Book())); err != nil {
		t.Fatal(err)
	}
	if err := reg.Put("gone", compileT(t, dataset.Human())); err != nil {
		t.Fatal(err)
	}
	if err := reg.Delete("gone"); err != nil {
		t.Fatal(err)
	}
	want := reg.List()

	// A fresh Open over the same directory must resume the full corpus.
	reopened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := reopened.List(); !reflect.DeepEqual(got, want) {
		t.Errorf("reopened registry lists %+v, want %+v", got, want)
	}
	if reopened.Has("gone") {
		t.Error("deleted entry survived reopen")
	}

	// Replacing an entry keeps exactly one blob per id on disk.
	if err := reopened.Put("po1", compileT(t, dataset.PO2())); err != nil {
		t.Fatal(err)
	}
	blobs, err := filepath.Glob(filepath.Join(dir, "*"+ext))
	if err != nil {
		t.Fatal(err)
	}
	if len(blobs) != 2 {
		t.Errorf("found %d blobs on disk, want 2: %v", len(blobs), blobs)
	}
}

// A blob truncated at any offset (a crash mid-Put), or with a byte
// appended, costs Open that entry alone: the blob is renamed aside as
// .corrupt and reported, the other two entries load, and stale .put-* temp
// files are removed.
func TestOpenQuarantinesTruncatedBlob(t *testing.T) {
	dir := t.TempDir()
	reg, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for id, root := range map[string]*xmltree.Node{"po1": dataset.PO1(), "po2": dataset.PO2(), "book": dataset.Book()} {
		if err := reg.Put(id, compileT(t, root)); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, "book"+ext)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, ".put-123456")
	if err := os.WriteFile(stale, blob[:7], 0o644); err != nil {
		t.Fatal(err)
	}
	torn := make([][]byte, 0, len(blob)+1)
	for n := 0; n < len(blob); n++ {
		torn = append(torn, blob[:n])
	}
	torn = append(torn, append(append([]byte(nil), blob...), '0'))
	for _, bad := range torn {
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		reopened, err := Open(dir)
		if err != nil {
			t.Fatalf("%d of %d bytes: Open: %v", len(bad), len(blob), err)
		}
		if reopened.Len() != 2 || !reopened.Has("po1") || !reopened.Has("po2") {
			t.Fatalf("%d of %d bytes: loaded %+v, want po1 and po2", len(bad), len(blob), reopened.List())
		}
		if q := reopened.Quarantined(); len(q) != 1 || q[0] != path+".corrupt" {
			t.Fatalf("%d of %d bytes: quarantined %v, want [%s.corrupt]", len(bad), len(blob), q, path)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("%d of %d bytes: blob left in place (stat err %v)", len(bad), len(blob), err)
		}
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale temp file survived Open (stat err %v)", err)
	}
	// With the torn blob gone, the next Open finds nothing to quarantine.
	reopened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Len() != 2 || len(reopened.Quarantined()) != 0 {
		t.Fatalf("clean reopen: len %d, quarantined %v", reopened.Len(), reopened.Quarantined())
	}
}

func TestSearch(t *testing.T) {
	reg, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	for id, tree := range map[string]*xmltree.Node{
		"po2":     dataset.PO2(),
		"book":    dataset.Book(),
		"article": dataset.Article(),
		"human":   dataset.Human(),
	} {
		if err := reg.Put(id, compileT(t, tree)); err != nil {
			t.Fatal(err)
		}
	}
	eng, err := qmatch.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	query := compileT(t, dataset.PO1())

	results, stats, err := reg.Search(context.Background(), eng, query, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Corpus != 4 || stats.Candidates != 4 {
		t.Errorf("stats = %+v, want corpus=4 candidates=4", stats)
	}
	if len(results) != 4 || results[0].ID != "po2" {
		t.Fatalf("results = %+v, want po2 first of 4", results)
	}
	for i := 1; i < len(results); i++ {
		if results[i-1].Score < results[i].Score {
			t.Errorf("results out of order at %d", i)
		}
	}
	if results[0].Overlap <= 0 || results[0].Overlap > 1 {
		t.Errorf("winner overlap %v outside (0,1]", results[0].Overlap)
	}

	// k=1: only the strongest prefilter candidate is ranked, and on this
	// corpus that is also the best full-QoM match.
	top, stats, err := reg.Search(context.Background(), eng, query, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Candidates != 1 || len(top) != 1 || top[0].ID != "po2" {
		t.Errorf("k=1 search: results %+v stats %+v, want the single po2 hit", top, stats)
	}
	if top[0].Score != results[0].Score || !reflect.DeepEqual(top[0].Correspondences, results[0].Correspondences) {
		t.Error("top-1 result differs from the exhaustive winner")
	}

	// Empty registry searches cleanly.
	empty, _ := Open("")
	none, stats, err := empty.Search(context.Background(), eng, query, 0)
	if err != nil || len(none) != 0 || stats.Corpus != 0 {
		t.Errorf("empty search = (%v, %+v, %v)", none, stats, err)
	}
}
