package xmltree

import (
	"strings"
	"testing"
)

// sample builds the PO tree of Figure 1 of the paper (shape only).
func sample() *Node {
	lines := NewTree("Lines", Elem(""),
		New("Item", Elem("string")),
		New("Quantity", Elem("integer")),
		New("UnitOfMeasure", Elem("string")),
	)
	info := NewTree("PurchaseInfo", Elem(""),
		New("BillingAddr", Elem("string")),
		New("ShippingAddr", Elem("string")),
		lines,
	)
	return NewTree("PO", Elem(""),
		New("OrderNo", Elem("integer")),
		info,
		New("PurchaseDate", Elem("date")),
	)
}

func TestAddSetsParentAndOrder(t *testing.T) {
	root := New("root", Properties{})
	a := New("a", Properties{})
	b := New("b", Properties{})
	root.Add(a).Add(b)
	if a.Parent() != root || b.Parent() != root {
		t.Fatal("parent linkage not set")
	}
	if a.Props.Order != 1 || b.Props.Order != 2 {
		t.Fatalf("orders = %d,%d, want 1,2", a.Props.Order, b.Props.Order)
	}
}

func TestAddKeepsExplicitOrder(t *testing.T) {
	root := New("root", Properties{})
	c := New("c", Properties{Order: 7})
	root.Add(c)
	if c.Props.Order != 7 {
		t.Fatalf("explicit order overwritten: %d", c.Props.Order)
	}
}

func TestAddNilIsNoop(t *testing.T) {
	root := New("root", Properties{})
	root.Add(nil)
	if len(root.Children) != 0 {
		t.Fatal("nil child appended")
	}
}

func TestLevels(t *testing.T) {
	po := sample()
	if got := po.Level(); got != 0 {
		t.Fatalf("root level = %d, want 0", got)
	}
	q := po.Find("PO/PurchaseInfo/Lines/Quantity")
	if q == nil {
		t.Fatal("Quantity not found")
	}
	if got := q.Level(); got != 3 {
		t.Fatalf("Quantity level = %d, want 3", got)
	}
	if got := po.Find("PO/OrderNo").Level(); got != 1 {
		t.Fatalf("OrderNo level = %d, want 1", got)
	}
}

func TestPath(t *testing.T) {
	po := sample()
	q := po.Children[1].Children[2].Children[1]
	if got := q.Path(); got != "PO/PurchaseInfo/Lines/Quantity" {
		t.Fatalf("path = %q", got)
	}
}

func TestSizeAndDepth(t *testing.T) {
	po := sample()
	if got := po.Size(); got != 10 {
		t.Fatalf("size = %d, want 10", got)
	}
	if got := po.MaxDepth(); got != 3 {
		t.Fatalf("max depth = %d, want 3", got)
	}
	leaf := New("x", Properties{})
	if leaf.Size() != 1 || leaf.MaxDepth() != 0 {
		t.Fatalf("leaf size/depth = %d/%d", leaf.Size(), leaf.MaxDepth())
	}
}

func TestLeaves(t *testing.T) {
	po := sample()
	ls := po.Leaves()
	want := []string{"OrderNo", "BillingAddr", "ShippingAddr", "Item", "Quantity", "UnitOfMeasure", "PurchaseDate"}
	if len(ls) != len(want) {
		t.Fatalf("got %d leaves, want %d", len(ls), len(want))
	}
	for i, l := range ls {
		if l.Label != want[i] {
			t.Fatalf("leaf[%d] = %s, want %s", i, l.Label, want[i])
		}
	}
}

func TestWalkPrune(t *testing.T) {
	po := sample()
	var seen []string
	po.Walk(func(n *Node) bool {
		seen = append(seen, n.Label)
		return n.Label != "PurchaseInfo" // prune PurchaseInfo subtree
	})
	for _, s := range seen {
		if s == "Lines" || s == "Quantity" {
			t.Fatalf("pruned node %q visited", s)
		}
	}
	if seen[len(seen)-1] != "PurchaseDate" {
		t.Fatalf("walk order wrong: %v", seen)
	}
}

func TestFindMissing(t *testing.T) {
	if sample().Find("PO/NoSuch") != nil {
		t.Fatal("Find returned node for missing path")
	}
}

func TestFindLabel(t *testing.T) {
	po := sample()
	hits := po.FindLabel("Quantity")
	if len(hits) != 1 || hits[0].Path() != "PO/PurchaseInfo/Lines/Quantity" {
		t.Fatalf("FindLabel = %v", hits)
	}
	if got := po.FindLabel("zzz"); len(got) != 0 {
		t.Fatalf("FindLabel miss = %v", got)
	}
}

func TestCloneDeepAndDetached(t *testing.T) {
	po := sample()
	cp := po.Clone()
	if !Equal(po, cp) {
		t.Fatal("clone not equal to original")
	}
	if cp.Parent() != nil {
		t.Fatal("clone should be a root")
	}
	cp.Children[0].Label = "Changed"
	if po.Children[0].Label == "Changed" {
		t.Fatal("clone shares nodes with original")
	}
}

func TestEqual(t *testing.T) {
	a, b := sample(), sample()
	if !Equal(a, b) {
		t.Fatal("identical trees not Equal")
	}
	b.Find("PO/OrderNo").Props.Type = "string"
	if Equal(a, b) {
		t.Fatal("property difference not detected")
	}
	if !Equal(nil, nil) {
		t.Fatal("nil,nil should be equal")
	}
	if Equal(a, nil) || Equal(nil, b) {
		t.Fatal("nil vs tree should differ")
	}
}

func TestRootAndParent(t *testing.T) {
	po := sample()
	q := po.Find("PO/PurchaseInfo/Lines/Quantity")
	if q.Root() != po {
		t.Fatal("Root() wrong")
	}
	if q.Parent().Label != "Lines" {
		t.Fatalf("parent = %s", q.Parent().Label)
	}
}

func TestDumpAndString(t *testing.T) {
	po := sample()
	d := po.Dump()
	if !strings.Contains(d, "PO") || !strings.Contains(d, "    Quantity") {
		t.Fatalf("dump missing content:\n%s", d)
	}
	n := New("OrderNo", Elem("integer"))
	if got := n.String(); got != "OrderNo(integer)" {
		t.Fatalf("String = %q", got)
	}
	u := New("X", Properties{})
	if got := u.String(); got != "X" {
		t.Fatalf("untyped String = %q", got)
	}
}

func TestLabels(t *testing.T) {
	got := sample().Labels()
	if len(got) != 10 {
		t.Fatalf("labels = %v", got)
	}
	if got[0] != "BillingAddr" { // sorted
		t.Fatalf("labels not sorted: %v", got)
	}
}

func TestInvalidateOnAdd(t *testing.T) {
	po := sample()
	lines := po.Find("PO/PurchaseInfo/Lines")
	_ = lines.Path() // populate caches
	_ = lines.Level()
	// Re-root Lines under a new tree; paths/levels must refresh.
	nr := New("NewRoot", Properties{})
	nr.Add(lines)
	if got := lines.Path(); got != "NewRoot/Lines" {
		t.Fatalf("stale path after re-add: %q", got)
	}
	if got := lines.Level(); got != 1 {
		t.Fatalf("stale level after re-add: %d", got)
	}

	// A root caches no level, even when its children do: attaching one
	// must still refresh the levels below it.
	sub := NewTree("Sub", Properties{}, NewTree("Mid", Properties{}, New("Leaf", Properties{})))
	leaf := sub.Children[0].Children[0]
	if got := leaf.Level(); got != 2 {
		t.Fatalf("leaf level %d before the attach, want 2", got)
	}
	New("Top", Properties{}).Add(sub)
	if got := leaf.Level(); got != 3 {
		t.Fatalf("stale level after attaching a root: %d", got)
	}
}
