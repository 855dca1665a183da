// Package artifact implements compiled, content-addressed schema
// artifacts: a schema tree compiled once into the representation every
// match needs — the pre-order node list, the interned label and
// normalized-property vocabularies of the similarity kernel, and a
// label-signature sketch for cheap corpus prefiltering — plus a versioned
// binary encoding whose SHA-256 doubles as the artifact's identity.
//
// Compiling is the parse→intern pipeline run once: a schema matched many
// times (the registry/corpus-search workload) pays for interning at
// compile time instead of on every call, and a decoded artifact is ready
// to match without touching an XML parser. See DESIGN.md §10.
package artifact

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/bits"
	"sort"

	"qmatch/internal/core"
	"qmatch/internal/lingo"
	"qmatch/internal/xmltree"
)

// Binary format (version 1):
//
//	magic   [4]byte  "QMSC"
//	version uint16   big-endian, currently 1
//	sum     [32]byte SHA-256 of the payload
//	paylen  uint64   big-endian payload length
//	payload:
//	  flags  uint16 (bit 0: prefilter vocabulary includes label tokens)
//	  count  uvarint node count
//	  nodes  in pre-order, each:
//	    label      uvarint length + bytes
//	    type       uvarint length + bytes
//	    order      zigzag varint
//	    minOccurs  zigzag varint
//	    maxOccurs  zigzag varint (-1 = unbounded)
//	    bits       1 byte (bit 0 attribute, bit 1 nillable)
//	    use        uvarint length + bytes
//	    fixed      uvarint length + bytes
//	    default    uvarint length + bytes
//	    children   uvarint child count
//
// The payload is a deterministic function of the schema tree and the
// compile flags, so the content ID — the hex of sum — is stable across
// processes and machines: two schemas with equal trees compile to the
// same artifact ID regardless of the surface syntax they were parsed
// from.
var magic = [4]byte{'Q', 'M', 'S', 'C'}

// Version is the current artifact format version.
const Version = 1

// Decode errors. Each failure mode is a distinct sentinel so callers can
// tell a foreign or damaged blob (ErrChecksum, ErrTruncated, ErrMagic)
// from a format-evolution problem (ErrVersion) and from a blob that
// checksums but violates the payload grammar (ErrMalformed).
var (
	ErrMagic     = errors.New("artifact: not a qmatch schema artifact")
	ErrVersion   = errors.New("artifact: unsupported format version")
	ErrChecksum  = errors.New("artifact: checksum mismatch")
	ErrTruncated = errors.New("artifact: truncated blob")
	ErrMalformed = errors.New("artifact: malformed payload")
)

// Flag bits of the payload flags field.
const (
	// FlagLabelTokens marks an artifact whose prefilter vocabulary
	// includes the tokenized forms of compound labels.
	FlagLabelTokens uint16 = 1 << 0
)

// maxDepth bounds tree nesting during decode; schema trees are shallow,
// so anything deeper is a hostile blob, not a schema.
const maxDepth = 4096

// Sketch is a 256-bit signature of an artifact's prefilter vocabulary:
// every term sets two hashed bits. Two schemas with no common term have
// (almost always) disjoint sketches, so a corpus search rejects most
// non-candidates with four AND+popcount words before any set
// intersection runs.
type Sketch [4]uint64

// add sets the two bits of one term.
func (s *Sketch) add(term string) {
	h := fnv.New64a()
	io.WriteString(h, term)
	v := h.Sum64()
	b1, b2 := v&255, (v>>17)&255
	s[b1>>6] |= 1 << (b1 & 63)
	s[b2>>6] |= 1 << (b2 & 63)
}

// Intersects reports whether any bit is shared — the cheap candidate
// test run before exact overlap scoring.
func (s Sketch) Intersects(o Sketch) bool {
	return s[0]&o[0]|s[1]&o[1]|s[2]&o[2]|s[3]&o[3] != 0
}

// Bits returns the number of set bits, for diagnostics.
func (s Sketch) Bits() int {
	return bits.OnesCount64(s[0]) + bits.OnesCount64(s[1]) +
		bits.OnesCount64(s[2]) + bits.OnesCount64(s[3])
}

// Compiled is a schema compiled once into everything a match needs. All
// fields are read-only after Compile/Decode returns, so one Compiled may
// serve any number of concurrent matches.
type Compiled struct {
	// Root is the schema tree.
	Root *xmltree.Node
	// Nodes is the pre-order node list Root.Nodes() would return.
	Nodes []*xmltree.Node
	// Interned is the per-side similarity-kernel vocabulary: dense label
	// and normalized-property ids per node (see core.Intern).
	Interned *core.Interned
	// Terms is the sorted, deduplicated lowercase prefilter vocabulary:
	// the schema's labels, plus their tokens when FlagLabelTokens is set.
	Terms []string
	// Sketch is the 256-bit signature of Terms.
	Sketch Sketch
	// Flags are the compile flags baked into the encoding (and the ID).
	Flags uint16

	id      string // hex SHA-256 of payload
	payload []byte // the canonical encoding, kept for cheap Encode
}

// ID returns the content address: the hex SHA-256 of the canonical
// payload. Equal trees compiled with equal flags share an ID.
func (c *Compiled) ID() string { return c.id }

// Compile runs the intern pipeline over a schema tree and fixes the
// artifact's content address. The tree is captured by reference and must
// not be mutated afterwards.
func Compile(root *xmltree.Node, flags uint16) (*Compiled, error) {
	if root == nil {
		return nil, fmt.Errorf("artifact: compile: nil schema tree")
	}
	payload := encodePayload(root, flags)
	sum := sha256.Sum256(payload)
	c := &Compiled{
		Root:    root,
		Flags:   flags,
		id:      hex.EncodeToString(sum[:]),
		payload: payload,
	}
	c.derive()
	return c, nil
}

// derive fills the computed views over Root: node list, kernel
// vocabulary, prefilter terms and sketch.
func (c *Compiled) derive() {
	c.Nodes = c.Root.Nodes()
	c.Interned = core.Intern(c.Nodes)
	seen := make(map[string]struct{}, len(c.Interned.Labels)*2)
	add := func(term string) {
		if term == "" {
			return
		}
		if _, ok := seen[term]; ok {
			return
		}
		seen[term] = struct{}{}
		c.Terms = append(c.Terms, term)
		c.Sketch.add(term)
	}
	for _, label := range c.Interned.Labels {
		add(lower(label))
		if c.Flags&FlagLabelTokens != 0 {
			for _, tok := range lingo.Tokenize(label) {
				add(tok)
			}
		}
	}
	sort.Strings(c.Terms)
}

// lower is strings.ToLower without the import for the common ASCII case.
func lower(s string) string {
	for i := 0; i < len(s); i++ {
		if b := s[i]; 'A' <= b && b <= 'Z' {
			buf := []byte(s)
			for j := i; j < len(buf); j++ {
				if 'A' <= buf[j] && buf[j] <= 'Z' {
					buf[j] += 'a' - 'A'
				}
			}
			return string(buf)
		}
	}
	return s
}

// Overlap scores the prefilter affinity of two artifacts in [0,1]: the
// exact Jaccard overlap of their term vocabularies, with the sketch
// intersection as a fast zero test. This is the blocking function of the
// corpus search — cheap enough to run against every registry entry, so
// the full QoM table only ever runs on the top-K survivors.
func Overlap(a, b *Compiled) float64 {
	if len(a.Terms) == 0 || len(b.Terms) == 0 {
		return 0
	}
	if !a.Sketch.Intersects(b.Sketch) {
		return 0
	}
	inter := 0
	i, j := 0, 0
	for i < len(a.Terms) && j < len(b.Terms) {
		switch {
		case a.Terms[i] == b.Terms[j]:
			inter++
			i++
			j++
		case a.Terms[i] < b.Terms[j]:
			i++
		default:
			j++
		}
	}
	union := len(a.Terms) + len(b.Terms) - inter
	return float64(inter) / float64(union)
}

// Encode writes the artifact in the versioned binary format. The bytes
// are deterministic: encoding the same artifact twice — or an artifact
// decoded from these bytes — reproduces them exactly.
func Encode(w io.Writer, c *Compiled) error {
	var hdr [4 + 2 + 32 + 8]byte
	copy(hdr[:4], magic[:])
	binary.BigEndian.PutUint16(hdr[4:6], Version)
	sum := sha256.Sum256(c.payload)
	copy(hdr[6:38], sum[:])
	binary.BigEndian.PutUint64(hdr[38:46], uint64(len(c.payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("artifact: encode: %w", err)
	}
	if _, err := w.Write(c.payload); err != nil {
		return fmt.Errorf("artifact: encode: %w", err)
	}
	return nil
}

// maxPayload caps decoded payloads (64 MiB) so a forged length header
// cannot balloon memory before the checksum is even checked.
const maxPayload = 64 << 20

// Decode reads one whole artifact written by Encode, verifying version and
// checksum before trusting a single payload byte, and reads r to its end:
// a byte after the payload makes the stream malformed, so every accepted
// stream re-encodes to itself. Failure modes map to the package's sentinel
// errors (errors.Is):
//
//	ErrMagic      not an artifact stream
//	ErrVersion    format version this build does not speak
//	ErrTruncated  stream ends inside header or payload
//	ErrChecksum   payload does not hash to the header sum
//	ErrMalformed  payload checksums but violates the grammar, or bytes
//	              follow the payload
func Decode(r io.Reader) (*Compiled, error) {
	var hdr [4 + 2 + 32 + 8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrTruncated, err)
	}
	if [4]byte(hdr[:4]) != magic {
		return nil, fmt.Errorf("%w (magic %q)", ErrMagic, hdr[:4])
	}
	version := binary.BigEndian.Uint16(hdr[4:6])
	if version != Version {
		return nil, fmt.Errorf("%w: got version %d, this build speaks %d", ErrVersion, version, Version)
	}
	paylen := binary.BigEndian.Uint64(hdr[38:46])
	if paylen > maxPayload {
		return nil, fmt.Errorf("%w: payload length %d exceeds %d", ErrMalformed, paylen, maxPayload)
	}
	payload := make([]byte, paylen)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("%w: payload: %v", ErrTruncated, err)
	}
	if n, err := io.ReadFull(r, hdr[:1]); n > 0 {
		return nil, fmt.Errorf("%w: bytes after the %d-byte payload", ErrMalformed, paylen)
	} else if err != io.EOF {
		return nil, fmt.Errorf("artifact: decode: %w", err)
	}
	sum := sha256.Sum256(payload)
	if sum != [32]byte(hdr[6:38]) {
		return nil, fmt.Errorf("%w: blob does not hash to its header sum", ErrChecksum)
	}
	root, flags, err := decodePayload(payload)
	if err != nil {
		return nil, err
	}
	c := &Compiled{
		Root:    root,
		Flags:   flags,
		id:      hex.EncodeToString(sum[:]),
		payload: payload,
	}
	c.derive()
	return c, nil
}

// encodePayload serializes flags + tree into the canonical byte form.
func encodePayload(root *xmltree.Node, flags uint16) []byte {
	buf := make([]byte, 2, 256)
	binary.BigEndian.PutUint16(buf[:2], flags)
	nodes := root.Nodes()
	buf = binary.AppendUvarint(buf, uint64(len(nodes)))
	var enc func(n *xmltree.Node) // pre-order, matching Nodes()
	enc = func(n *xmltree.Node) {
		buf = appendString(buf, n.Label)
		p := n.Props
		buf = appendString(buf, p.Type)
		buf = binary.AppendVarint(buf, int64(p.Order))
		buf = binary.AppendVarint(buf, int64(p.MinOccurs))
		buf = binary.AppendVarint(buf, int64(p.MaxOccurs))
		var b byte
		if p.IsAttribute {
			b |= 1
		}
		if p.Nillable {
			b |= 2
		}
		buf = append(buf, b)
		buf = appendString(buf, p.Use)
		buf = appendString(buf, p.Fixed)
		buf = appendString(buf, p.Default)
		buf = binary.AppendUvarint(buf, uint64(len(n.Children)))
		for _, c := range n.Children {
			enc(c)
		}
	}
	enc(root)
	return buf
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// payloadReader consumes the payload with bounds checking; every read
// failure surfaces as ErrMalformed (the checksum already passed, so a
// short or inconsistent payload is a grammar violation, not truncation).
type payloadReader struct {
	buf []byte
	off int
}

func (p *payloadReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(p.buf[p.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad uvarint at offset %d", ErrMalformed, p.off)
	}
	p.off += n
	return v, nil
}

func (p *payloadReader) varint() (int64, error) {
	v, n := binary.Varint(p.buf[p.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad varint at offset %d", ErrMalformed, p.off)
	}
	p.off += n
	return v, nil
}

func (p *payloadReader) str() (string, error) {
	n, err := p.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(p.buf)-p.off) {
		return "", fmt.Errorf("%w: string length %d overruns payload", ErrMalformed, n)
	}
	s := string(p.buf[p.off : p.off+int(n)])
	p.off += int(n)
	return s, nil
}

func (p *payloadReader) byte() (byte, error) {
	if p.off >= len(p.buf) {
		return 0, fmt.Errorf("%w: payload ends inside node", ErrMalformed)
	}
	b := p.buf[p.off]
	p.off++
	return b, nil
}

// decodePayload parses the canonical byte form back into a tree.
func decodePayload(payload []byte) (*xmltree.Node, uint16, error) {
	if len(payload) < 2 {
		return nil, 0, fmt.Errorf("%w: payload shorter than flags field", ErrMalformed)
	}
	flags := binary.BigEndian.Uint16(payload[:2])
	p := &payloadReader{buf: payload, off: 2}
	declared, err := p.uvarint()
	if err != nil {
		return nil, 0, err
	}
	if declared == 0 || declared > uint64(len(payload)) {
		// Every node costs several payload bytes, so a count beyond the
		// payload length is a forgery regardless of content.
		return nil, 0, fmt.Errorf("%w: implausible node count %d", ErrMalformed, declared)
	}
	decoded := 0
	var dec func(depth int) (*xmltree.Node, error)
	dec = func(depth int) (*xmltree.Node, error) {
		if depth > maxDepth {
			return nil, fmt.Errorf("%w: nesting beyond %d levels", ErrMalformed, maxDepth)
		}
		if decoded++; uint64(decoded) > declared {
			return nil, fmt.Errorf("%w: more nodes than declared count %d", ErrMalformed, declared)
		}
		label, err := p.str()
		if err != nil {
			return nil, err
		}
		if label == "" {
			return nil, fmt.Errorf("%w: node without label", ErrMalformed)
		}
		var props xmltree.Properties
		if props.Type, err = p.str(); err != nil {
			return nil, err
		}
		order, err := p.varint()
		if err != nil {
			return nil, err
		}
		minOcc, err := p.varint()
		if err != nil {
			return nil, err
		}
		maxOcc, err := p.varint()
		if err != nil {
			return nil, err
		}
		if order < 0 || minOcc < 0 || maxOcc < xmltree.Unbounded {
			return nil, fmt.Errorf("%w: node %q: invalid order/occurrence (%d,%d,%d)",
				ErrMalformed, label, order, minOcc, maxOcc)
		}
		props.Order, props.MinOccurs, props.MaxOccurs = int(order), int(minOcc), int(maxOcc)
		b, err := p.byte()
		if err != nil {
			return nil, err
		}
		if b&^3 != 0 {
			return nil, fmt.Errorf("%w: node %q: unknown property bits %#x", ErrMalformed, label, b)
		}
		props.IsAttribute, props.Nillable = b&1 != 0, b&2 != 0
		if props.Use, err = p.str(); err != nil {
			return nil, err
		}
		if props.Fixed, err = p.str(); err != nil {
			return nil, err
		}
		if props.Default, err = p.str(); err != nil {
			return nil, err
		}
		kids, err := p.uvarint()
		if err != nil {
			return nil, err
		}
		if kids > uint64(len(p.buf)-p.off) {
			return nil, fmt.Errorf("%w: node %q: child count %d overruns payload", ErrMalformed, label, kids)
		}
		n := xmltree.New(label, props)
		for i := uint64(0); i < kids; i++ {
			c, err := dec(depth + 1)
			if err != nil {
				return nil, err
			}
			// Preserve the serialized Order rather than Add's renumbering.
			ord := c.Props.Order
			n.Add(c)
			c.Props.Order = ord
		}
		return n, nil
	}
	root, err := dec(0)
	if err != nil {
		return nil, 0, err
	}
	if uint64(decoded) != declared {
		return nil, 0, fmt.Errorf("%w: declared %d nodes, decoded %d", ErrMalformed, declared, decoded)
	}
	if p.off != len(p.buf) {
		return nil, 0, fmt.Errorf("%w: %d trailing bytes after tree", ErrMalformed, len(p.buf)-p.off)
	}
	return root, flags, nil
}
