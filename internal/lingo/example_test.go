package lingo_test

import (
	"fmt"

	"qmatch/internal/lingo"
)

// ExampleNameMatcher_Match classifies the label pairs of the paper's
// worked example.
func ExampleNameMatcher_Match() {
	m := lingo.NewNameMatcher(lingo.Default())
	for _, pair := range [][2]string{
		{"OrderNo", "OrderNo"},
		{"Quantity", "Qty"},
		{"UnitOfMeasure", "UOM"},
		{"Library", "human"},
	} {
		score, kind := m.Match(pair[0], pair[1])
		fmt.Printf("%s vs %s: %.2f (%s)\n", pair[0], pair[1], score, kind)
	}
	// Output:
	// OrderNo vs OrderNo: 1.00 (exact)
	// Quantity vs Qty: 0.85 (relaxed)
	// UnitOfMeasure vs UOM: 0.85 (relaxed)
	// Library vs human: 0.00 (none)
}

// ExampleTokenize shows camelCase and shorthand handling.
func ExampleTokenize() {
	fmt.Println(lingo.Tokenize("PurchaseOrderNumber"))
	fmt.Println(lingo.Tokenize("Item#"))
	// Output:
	// [purchase order number]
	// [item number]
}
