package apsp

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"unsafe"

	"kor/internal/graph"
)

// On-disk persistence for the partitioned oracle: the "KORI" format. The
// point of the partition index is that it is built offline (kordata
// -build-index) and loaded in milliseconds at serving start, so the file
// layout is designed for zero-copy loading: a fixed header, a per-region
// counts block, then every table as one contiguous little-endian array with
// the float64 section 8-byte aligned. On a little-endian host the loader
// mmaps the file and aliases the arrays in place — no decode, no copy, and
// the page cache makes repeated starts effectively free. Elsewhere (or when
// mmap fails) it falls back to read-all + decode, which is portable to any
// byte order.
//
// The file is keyed to graph.Fingerprint(): a loader must present the exact
// graph the index was built from, otherwise OpenIndex fails with
// ErrIndexFingerprint — serving distances for a different graph would be
// silently wrong, the one failure mode a distance index must never have.
//
// Layout (all integers little-endian):
//
//	[0:4)   magic "KORI"
//	[4:8)   u32 format version
//	[8:16)  u64 graph fingerprint
//	[16:20) u32 cell size cap
//	[20:24) u32 node count
//	[24:28) u32 region count
//	[28:32) u32 border count
//	[32:40) u64 payload length
//	[40:44) u32 reserved (zero)
//	[44:48) u32 CRC-32 (IEEE) of header bytes [4:44)
//	payload:
//	  per region: u32 node count k, u32 border count nb
//	  int32 arrays: region[n] local[n] borderIdx[n] borders[B] cellNodes[Σk]
//	                ovTauPar[B²] ovSigPar[B²] cellTauPar[Σk²] cellSigPar[Σk²]
//	  zero padding to the next 8-byte file offset
//	  float64 arrays: tauPairMin[2C²] sigPairMin[2C²]
//	                  cellTauP[Σk²] cellTauS[Σk²] cellSigP[Σk²] cellSigS[Σk²]
//	                  ovTauP[B²] ovTauS[B²] ovSigP[B²] ovSigS[B²]
//	[48+payload:) u32 CRC-32 (IEEE) of the payload
//
// In code the header is indexHeader and the payload after the counts block
// is layout, the one statement of the table order that sizing, writing and
// reading walk. A reader refuses a nonzero reserved word or nonzero padding,
// so every index it accepts is one the writer produces byte for byte.
//
// C is the region count. Entry i·C+j of a pair-min table is the least
// primary then the least secondary of the overlay block from region i's
// borders to region j's (+Inf, +Inf for an empty block): the cell-pair
// bounds (TargetSlice.CellBound) are read from the file, never recomputed
// from the overlay at open, which would fault the whole overlay in.
//
// Version 2 numbers the partition for scanning (partition.go): a region's nb
// border nodes lead its node list, the overlay indices run region by region
// (region c's borders are start(c) = Σ nb of the regions before it, onwards),
// and the four overlay score tables are blocked by region pair — the
// nb(i)×nb(j) block from region i's borders to region j's is row-major at
// start(i)·B + nb(i)·start(j). Cell tables and the overlay parent tables are
// row-major. OpenIndex checks the numbering before any table is indexed by
// it. Version 3 adds the pair-min tables. A file of another version — version
// 1 (overlay in node-ID order, a per-region border list) or version 2 (no
// pair-min tables) — is refused with ErrIndexVersion: rebuild it with
// kordata -build-index.

// Typed load failures. Errors returned by OpenIndex wrap exactly one of
// these, so callers can distinguish a damaged file from a stale one.
var (
	// ErrIndexFormat reports a file that is not a readable KORI index:
	// wrong magic, truncation, corruption (CRC mismatch) or inconsistent
	// internal structure.
	ErrIndexFormat = errors.New("apsp: invalid distance index file")
	// ErrIndexVersion reports a KORI file written by an incompatible format
	// version.
	ErrIndexVersion = errors.New("apsp: unsupported distance index version")
	// ErrIndexFingerprint reports an index built from a different graph than
	// the one presented at load time.
	ErrIndexFingerprint = errors.New("apsp: distance index does not match graph")
)

const indexVersion = 3

var indexMagic = [4]byte{'K', 'O', 'R', 'I'}

// indexHeader is the fixed header at the start of a KORI file, read and
// written whole with encoding/binary in little-endian order. Its field order
// is the header layout; the comment above gives the byte offsets.
type indexHeader struct {
	Magic       [4]byte
	Version     uint32
	Fingerprint uint64
	CellSize    uint32
	Nodes       uint32
	Regions     uint32
	Borders     uint32
	Payload     uint64 // payload bytes, the trailing CRC excluded
	Reserved    uint32 // zero
	CRC         uint32 // checksum()
}

// indexHeaderSize is the encoded header size, 48 bytes; the payload starts
// there, 8-byte aligned.
var indexHeaderSize = binary.Size(indexHeader{})

// checksum returns the CRC-32 (IEEE) of the encoded fields between Magic and
// CRC.
func (h *indexHeader) checksum() uint32 {
	b, _ := binary.Append(nil, binary.LittleEndian, h)
	return crc32.ChecksumIEEE(b[len(h.Magic) : len(b)-binary.Size(h.CRC)])
}

// hostLittleEndian reports whether in-memory integer layout matches the file
// byte order, the precondition for aliasing tables in place.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// IndexInfo describes a partitioned oracle's index identity, surfaced
// through stats endpoints so operators can tell a warm start from a rebuild.
type IndexInfo struct {
	// Fingerprint is the graph fingerprint the tables were built from.
	Fingerprint uint64
	// Regions and Borders describe the partition shape.
	Regions int
	Borders int
	// Bytes is the on-disk file size; 0 for an oracle built in memory.
	Bytes int64
	// Mapped reports that the tables alias an mmap'ed file.
	Mapped bool
}

// IndexInfo reports the oracle's index identity.
func (o *PartitionedOracle) IndexInfo() IndexInfo {
	return IndexInfo{
		Fingerprint: o.g.Fingerprint(),
		Regions:     len(o.cells),
		Borders:     len(o.borders),
		Bytes:       o.fileBytes,
		Mapped:      o.mapped != nil,
	}
}

// Close releases the mmap backing the tables, if any. The oracle must not be
// used afterwards; for in-memory oracles Close is a no-op.
func (o *PartitionedOracle) Close() error {
	if o.mapped == nil {
		return nil
	}
	m := o.mapped
	o.mapped = nil
	return munmapBytes(m)
}

// layout walks the payload tables that follow the counts block through t,
// in file order: the one statement of the table order, which payloadLen
// sizes, WriteIndex writes and decodeIndex reads. Table lengths derive from
// n nodes, b borders and counts, the counts block.
func (o *PartitionedOracle) layout(t *tableWalk, n, b int, counts []uint32) {
	cells := o.cells
	k := func(i int) int { return int(counts[2*i]) }
	table(t, &o.region, n)
	table(t, &o.local, n)
	table(t, &o.borderIdx, n)
	table(t, &o.borders, b)
	for i := range cells {
		table(t, &cells[i].nodes, k(i))
	}
	table(t, &o.ovTauPar, b*b)
	table(t, &o.ovSigPar, b*b)
	for i := range cells {
		table(t, &cells[i].tauPar, k(i)*k(i))
	}
	for i := range cells {
		table(t, &cells[i].sigPar, k(i)*k(i))
	}
	t.pad8()
	table(t, &o.pairMin[ByObjective], len(cells)*len(cells))
	table(t, &o.pairMin[ByBudget], len(cells)*len(cells))
	for i := range cells {
		table(t, &cells[i].tauP, k(i)*k(i))
	}
	for i := range cells {
		table(t, &cells[i].tauS, k(i)*k(i))
	}
	for i := range cells {
		table(t, &cells[i].sigP, k(i)*k(i))
	}
	for i := range cells {
		table(t, &cells[i].sigS, k(i)*k(i))
	}
	table(t, &o.ovTauP, b*b)
	table(t, &o.ovTauS, b*b)
	table(t, &o.ovSigP, b*b)
	table(t, &o.ovSigS, b*b)
}

// payloadLen computes the exact payload byte length of the oracle's index
// with the given counts block.
func (o *PartitionedOracle) payloadLen(counts []uint32) uint64 {
	t := &tableWalk{off: 4 * len(counts)}
	o.layout(t, len(o.region), len(o.borders), counts)
	return uint64(t.off)
}

// WriteIndexFile serializes the oracle's tables to path, writing a temp file
// first and renaming it into place so a crash never leaves a torn index.
func (o *PartitionedOracle) WriteIndexFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err = o.WriteIndex(bw); err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// WriteIndex serializes the oracle's tables in the KORI format.
func (o *PartitionedOracle) WriteIndex(w io.Writer) error {
	// The counts block: region i's node count and border count at 2i, 2i+1.
	counts := make([]uint32, 0, 2*len(o.cells))
	for i := range o.cells {
		counts = append(counts, uint32(len(o.cells[i].nodes)), uint32(o.cells[i].nb))
	}
	h := indexHeader{
		Magic:       indexMagic,
		Version:     indexVersion,
		Fingerprint: o.g.Fingerprint(),
		CellSize:    uint32(o.cellSize),
		Nodes:       uint32(len(o.region)),
		Regions:     uint32(len(o.cells)),
		Borders:     uint32(len(o.borders)),
		Payload:     o.payloadLen(counts),
	}
	h.CRC = h.checksum()
	if err := binary.Write(w, binary.LittleEndian, &h); err != nil {
		return err
	}

	crc := crc32.NewIEEE()
	t := &tableWalk{w: io.MultiWriter(w, crc), buf: make([]byte, 1<<16)}
	table(t, &counts, len(counts))
	o.layout(t, len(o.region), len(o.borders), counts)
	if t.err != nil {
		return t.err
	}
	return binary.Write(w, binary.LittleEndian, crc.Sum32())
}

// tableWalk is one walk of the payload: it counts the bytes (neither w nor
// data set), writes the tables to w in little-endian order, or reads them
// from data. Writing converts through a reusable chunk buffer so a
// multi-gigabyte table never allocates proportionally; reading aliases data
// when it is an aligned little-endian mapping and decodes a copy otherwise.
type tableWalk struct {
	off int // payload bytes walked, the counts block included
	err error

	w   io.Writer
	buf []byte

	data  []byte
	alias bool
	file  io.ReaderAt // the file data holds, for the padding
}

// table walks one table of n entries at *s: it counts them, writes them, or
// sets *s to them.
func table[T uint32 | int32 | graph.NodeID | float64 | scorePair](t *tableWalk, s *[]T, n int) {
	if t.err != nil {
		return
	}
	size := int(unsafe.Sizeof(*new(T)))
	word := min(size, 8) // a scorePair is two float64 words
	switch {
	case t.w != nil:
		if len(*s) != n {
			t.err = fmt.Errorf("apsp: internal: index table has %d entries, expected %d", len(*s), n)
			return
		}
		raw := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(*s))), n*size)
		for len(raw) > 0 && t.err == nil {
			c := min(len(raw), len(t.buf))
			toLittleEndian(t.buf[:c], raw[:c], word)
			t.raw(t.buf[:c])
			raw = raw[c:]
		}
	case t.data != nil:
		raw := t.take(n * size)
		if t.err != nil {
			return
		}
		if t.alias {
			*s = unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(raw))), n)
			return
		}
		out := make([]T, n)
		fromLittleEndian(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(out))), n*size), raw, word)
		*s = out
	default:
		t.off += n * size
	}
}

// pad8 walks the zero padding up to the next 8-byte offset. The payload
// starts at file offset 48, itself 8-aligned, so payload-relative alignment
// equals file alignment. A reader refuses nonzero padding, which the writer
// never produces. It reads the padding through read(2), not data: no query
// reads it, and a fault in a mapping would keep its page resident.
func (t *tableWalk) pad8() {
	var zero, p [8]byte
	pad := (8 - t.off%8) % 8
	switch {
	case t.w != nil:
		t.raw(zero[:pad])
	case t.data != nil:
		if t.take(pad); t.err == nil {
			_, t.err = t.file.ReadAt(p[:pad], int64(indexHeaderSize+t.off-pad))
		}
		if t.err == nil && p != zero {
			t.err = fmt.Errorf("%w: nonzero alignment padding", ErrIndexFormat)
		}
	default:
		t.off += pad
	}
}

// raw writes b as it is.
func (t *tableWalk) raw(b []byte) {
	if t.err == nil {
		_, t.err = t.w.Write(b)
		t.off += len(b)
	}
}

// take returns the next n bytes of data.
func (t *tableWalk) take(n int) []byte {
	if t.off+n > len(t.data) {
		t.err = fmt.Errorf("%w: truncated payload section", ErrIndexFormat)
		return nil
	}
	b := t.data[t.off : t.off+n]
	t.off += n
	return b
}

// toLittleEndian copies src, words of the given size (4 or 8 bytes) in host
// order, to dst in little-endian order.
func toLittleEndian(dst, src []byte, word int) {
	if word == 4 {
		for i := 0; i < len(src); i += 4 {
			binary.LittleEndian.PutUint32(dst[i:], binary.NativeEndian.Uint32(src[i:]))
		}
		return
	}
	for i := 0; i < len(src); i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], binary.NativeEndian.Uint64(src[i:]))
	}
}

// fromLittleEndian copies src, little-endian words of the given size (4 or
// 8 bytes), to dst in host order.
func fromLittleEndian(dst, src []byte, word int) {
	if word == 4 {
		for i := 0; i < len(src); i += 4 {
			binary.NativeEndian.PutUint32(dst[i:], binary.LittleEndian.Uint32(src[i:]))
		}
		return
	}
	for i := 0; i < len(src); i += 8 {
		binary.NativeEndian.PutUint64(dst[i:], binary.LittleEndian.Uint64(src[i:]))
	}
}

// OpenIndex loads a KORI index from path for graph g. The file must carry
// g's exact fingerprint (ErrIndexFingerprint otherwise). On little-endian
// hosts with working mmap the tables alias the mapped file — near-zero load
// allocation and instant warm starts off the page cache; otherwise the file
// is read and decoded. The returned oracle answers queries identically to
// the oracle the file was written from: it serves the partition stored in
// the file, whichever rule cut it: checkNumbering checks its layout, not the
// rule, so a file cut by breadth-first growing opens on a graph with
// positions, which PartitionGraph would bisect.
func OpenIndex(path string, g *graph.Graph) (*PartitionedOracle, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	var h indexHeader
	if err := binary.Read(f, binary.LittleEndian, &h); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrIndexFormat, err)
	}
	if h.Magic != indexMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrIndexFormat)
	}
	if h.CRC != h.checksum() {
		return nil, fmt.Errorf("%w: header checksum mismatch", ErrIndexFormat)
	}
	if h.Version != indexVersion {
		return nil, fmt.Errorf("%w: file version %d, supported %d (rebuild with kordata -build-index)", ErrIndexVersion, h.Version, indexVersion)
	}
	if want := g.Fingerprint(); h.Fingerprint != want {
		return nil, fmt.Errorf("%w: index built for graph %016x, loading graph is %016x", ErrIndexFingerprint, h.Fingerprint, want)
	}
	if int(h.Nodes) != g.NumNodes() {
		return nil, fmt.Errorf("%w: index has %d nodes, graph has %d", ErrIndexFingerprint, h.Nodes, g.NumNodes())
	}
	if h.Reserved != 0 {
		return nil, fmt.Errorf("%w: reserved header field is %d", ErrIndexFormat, h.Reserved)
	}
	wantSize := int64(indexHeaderSize) + int64(h.Payload) + 4
	if h.Payload > 1<<40 || st.Size() != wantSize {
		return nil, fmt.Errorf("%w: file is %d bytes, header implies %d", ErrIndexFormat, st.Size(), wantSize)
	}

	// Obtain the whole file: mmap when possible, read-all otherwise. The
	// payload CRC of a mapping is computed from read(2) on f, not through the
	// mapping: every page the checksum touched through the mapping would stay
	// resident in this process, and queries read a small part of the file.
	var data []byte
	var sum uint32
	mapped := false
	if hostLittleEndian {
		data, err = mmapFile(f, int(st.Size()))
		mapped = err == nil
	}
	if mapped {
		crc := crc32.NewIEEE()
		if _, err := io.CopyBuffer(crc, io.NewSectionReader(f, int64(indexHeaderSize), int64(h.Payload)), make([]byte, 256<<10)); err != nil {
			munmapBytes(data)
			return nil, err
		}
		sum = crc.Sum32()
	} else {
		data = make([]byte, st.Size())
		if _, err := io.ReadFull(io.NewSectionReader(f, 0, st.Size()), data); err != nil {
			return nil, err
		}
		sum = crc32.ChecksumIEEE(data[indexHeaderSize : indexHeaderSize+int(h.Payload)])
	}
	o, err := decodeIndex(f, data, sum, g, &h, mapped)
	if err != nil && mapped {
		munmapBytes(data)
	}
	return o, err
}

// decodeIndex assembles the oracle h describes from data, the full contents
// of file f, whose payload checksums to sum. When data is an aligned
// little-endian mapping the table slices alias it directly.
func decodeIndex(f *os.File, data []byte, sum uint32, g *graph.Graph, h *indexHeader, mapped bool) (*PartitionedOracle, error) {
	n, ncells, b := int(h.Nodes), int(h.Regions), int(h.Borders)
	payload := data[indexHeaderSize : indexHeaderSize+int(h.Payload)]
	if binary.LittleEndian.Uint32(data[len(data)-4:]) != sum {
		return nil, fmt.Errorf("%w: payload checksum mismatch", ErrIndexFormat)
	}
	t := &tableWalk{data: payload, file: f, alias: mapped && hostLittleEndian && uintptr(unsafe.Pointer(unsafe.SliceData(payload)))%8 == 0}
	var counts []uint32
	table(t, &counts, 2*ncells)
	if t.err != nil {
		return nil, t.err
	}

	o := &PartitionedOracle{
		g:         g,
		cellSize:  int(h.CellSize),
		fileBytes: int64(len(data)),
		cells:     make([]cellTables, ncells),
	}
	sumK, sumNB := 0, 0
	for i := range o.cells {
		o.cells[i].start, o.cells[i].nb = sumNB, int(counts[2*i+1])
		sumK += int(counts[2*i])
		sumNB += o.cells[i].nb
	}
	if sumK != n || sumNB != b {
		return nil, fmt.Errorf("%w: counts block disagrees with header (%d/%d nodes, %d/%d borders)",
			ErrIndexFormat, sumK, n, sumNB, b)
	}
	o.layout(t, n, b, counts)
	if t.err != nil {
		return nil, t.err
	}
	if t.off != len(payload) {
		return nil, fmt.Errorf("%w: payload has %d trailing bytes", ErrIndexFormat, len(payload)-t.off)
	}
	if mapped {
		o.mapped = data
	}
	if err := o.checkNumbering(); err != nil {
		return nil, err
	}
	o.initSlices()
	return o, nil
}

// checkNumbering verifies what every lookup indexes by without looking: each
// cell's node list agrees with region/local (n nodes in n distinct slots, so
// every slot holds a node of the graph), its first nb nodes — and no others —
// are border nodes, and the x-th of them is overlay index start+x. The CRC
// already rules out bit rot; this rules out a well-formed file whose arrays
// lie, which would otherwise read another pair's scores or fault at query
// time. The per-cell starts are running sums of counts that add up to B, so
// they ascend and every block lies inside the overlay tables.
func (o *PartitionedOracle) checkNumbering() error {
	for v, r := range o.region {
		if r < 0 || int(r) >= len(o.cells) {
			return fmt.Errorf("%w: node %d maps outside the regions", ErrIndexFormat, v)
		}
		if l := o.local[v]; l < 0 || int(l) >= len(o.cells[r].nodes) || o.cells[r].nodes[l] != graph.NodeID(v) {
			return fmt.Errorf("%w: node %d is not at its local index in region %d", ErrIndexFormat, v, r)
		}
	}
	for i := range o.cells {
		c := &o.cells[i]
		if c.nb > len(c.nodes) {
			return fmt.Errorf("%w: region %d has %d borders among %d nodes", ErrIndexFormat, i, c.nb, len(c.nodes))
		}
		for x, v := range c.nodes {
			want := int32(-1)
			if x < c.nb {
				want = int32(c.start + x)
			}
			if o.borderIdx[v] != want || (x < c.nb && o.borders[want] != v) {
				return fmt.Errorf("%w: region %d node %d breaks the border numbering", ErrIndexFormat, i, v)
			}
		}
	}
	return nil
}
