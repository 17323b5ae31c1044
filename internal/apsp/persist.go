package apsp

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
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

const (
	indexMagic      = "KORI"
	indexVersion    = 3
	indexHeaderSize = 48
)

// hostLittleEndian reports whether in-memory integer layout matches the file
// byte order, the precondition for aliasing tables in place.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// IndexInfo describes a partitioned oracle's index identity, surfaced
// through stats endpoints so operators can tell a warm start from a rebuild.
type IndexInfo struct {
	// Fingerprint is the graph fingerprint the tables were built from.
	Fingerprint uint64
	// CellSize is the partition's region-size cap.
	CellSize int
	// Regions and Borders describe the partition shape.
	Regions int
	Borders int
	// Bytes is the on-disk file size; 0 for an oracle built in memory.
	Bytes int64
	// Mapped reports that the tables alias an mmap'ed file.
	Mapped bool
	// FromDisk reports that the oracle was loaded by OpenIndex rather than
	// built by NewPartitionedOracle.
	FromDisk bool
}

// IndexInfo reports the oracle's index identity.
func (o *PartitionedOracle) IndexInfo() IndexInfo {
	return IndexInfo{
		Fingerprint: o.g.Fingerprint(),
		CellSize:    o.cellSize,
		Regions:     len(o.cells),
		Borders:     len(o.borders),
		Bytes:       o.fileBytes,
		Mapped:      o.mapped != nil,
		FromDisk:    o.fromDisk,
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

// payloadLen computes the exact payload byte length of the oracle's index.
func (o *PartitionedOracle) payloadLen() uint64 {
	n := len(o.region)
	b := len(o.borders)
	sumK, sumK2 := 0, 0
	for i := range o.cells {
		k := len(o.cells[i].nodes)
		sumK += k
		sumK2 += k * k
	}
	counts := 8 * len(o.cells)
	i32s := 3*n + b + sumK + 2*b*b + 2*sumK2
	f64s := 4*len(o.cells)*len(o.cells) + 4*sumK2 + 4*b*b
	pre := counts + 4*i32s
	pad := (8 - pre%8) % 8
	return uint64(pre + pad + 8*f64s)
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
	if err := o.WriteIndex(bw); err == nil {
		err = bw.Flush()
	} else {
		bw.Flush()
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// WriteIndex serializes the oracle's tables in the KORI format.
func (o *PartitionedOracle) WriteIndex(w io.Writer) error {
	var hdr [indexHeaderSize]byte
	copy(hdr[0:4], indexMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], indexVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], o.g.Fingerprint())
	binary.LittleEndian.PutUint32(hdr[16:20], uint32(o.cellSize))
	binary.LittleEndian.PutUint32(hdr[20:24], uint32(len(o.region)))
	binary.LittleEndian.PutUint32(hdr[24:28], uint32(len(o.cells)))
	binary.LittleEndian.PutUint32(hdr[28:32], uint32(len(o.borders)))
	binary.LittleEndian.PutUint64(hdr[32:40], o.payloadLen())
	binary.LittleEndian.PutUint32(hdr[44:48], crc32.ChecksumIEEE(hdr[4:44]))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}

	sw := &sectionWriter{w: w, crc: crc32.NewIEEE(), buf: make([]byte, 1<<16)}
	for i := range o.cells {
		sw.u32(uint32(len(o.cells[i].nodes)))
		sw.u32(uint32(o.cells[i].nb))
	}
	sw.i32s(o.region)
	sw.i32s(o.local)
	sw.i32s(o.borderIdx)
	sw.nids(o.borders)
	for i := range o.cells {
		sw.nids(o.cells[i].nodes)
	}
	sw.i32s(o.ovTauPar)
	sw.i32s(o.ovSigPar)
	for i := range o.cells {
		sw.i32s(o.cells[i].tauPar)
	}
	for i := range o.cells {
		sw.i32s(o.cells[i].sigPar)
	}
	sw.pad8()
	sw.pairs(o.pairMin[ByObjective])
	sw.pairs(o.pairMin[ByBudget])
	for i := range o.cells {
		sw.f64s(o.cells[i].tauP)
	}
	for i := range o.cells {
		sw.f64s(o.cells[i].tauS)
	}
	for i := range o.cells {
		sw.f64s(o.cells[i].sigP)
	}
	for i := range o.cells {
		sw.f64s(o.cells[i].sigS)
	}
	sw.f64s(o.ovTauP)
	sw.f64s(o.ovTauS)
	sw.f64s(o.ovSigP)
	sw.f64s(o.ovSigS)
	if sw.err != nil {
		return sw.err
	}
	if uint64(sw.written) != o.payloadLen() {
		return fmt.Errorf("apsp: internal: index payload %d bytes, expected %d", sw.written, o.payloadLen())
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], sw.crc.Sum32())
	_, err := w.Write(tail[:])
	return err
}

// sectionWriter streams payload sections, tracking the payload CRC and byte
// count. Conversion goes through a reusable chunk buffer so writing a
// multi-gigabyte table never allocates proportionally.
type sectionWriter struct {
	w       io.Writer
	crc     hash.Hash32
	buf     []byte
	written int64
	err     error
}

func (sw *sectionWriter) raw(b []byte) {
	if sw.err != nil {
		return
	}
	if _, err := sw.w.Write(b); err != nil {
		sw.err = err
		return
	}
	sw.crc.Write(b)
	sw.written += int64(len(b))
}

func (sw *sectionWriter) u32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	sw.raw(b[:])
}

func (sw *sectionWriter) i32s(vals []int32) {
	for len(vals) > 0 && sw.err == nil {
		chunk := len(sw.buf) / 4
		if chunk > len(vals) {
			chunk = len(vals)
		}
		for i := 0; i < chunk; i++ {
			binary.LittleEndian.PutUint32(sw.buf[i*4:], uint32(vals[i]))
		}
		sw.raw(sw.buf[:chunk*4])
		vals = vals[chunk:]
	}
}

func (sw *sectionWriter) nids(vals []graph.NodeID) {
	for len(vals) > 0 && sw.err == nil {
		chunk := len(sw.buf) / 4
		if chunk > len(vals) {
			chunk = len(vals)
		}
		for i := 0; i < chunk; i++ {
			binary.LittleEndian.PutUint32(sw.buf[i*4:], uint32(vals[i]))
		}
		sw.raw(sw.buf[:chunk*4])
		vals = vals[chunk:]
	}
}

func (sw *sectionWriter) f64s(vals []float64) {
	for len(vals) > 0 && sw.err == nil {
		chunk := len(sw.buf) / 8
		if chunk > len(vals) {
			chunk = len(vals)
		}
		for i := 0; i < chunk; i++ {
			binary.LittleEndian.PutUint64(sw.buf[i*8:], math.Float64bits(vals[i]))
		}
		sw.raw(sw.buf[:chunk*8])
		vals = vals[chunk:]
	}
}

// pairs writes score pairs as their float64s, primary first.
func (sw *sectionWriter) pairs(vals []scorePair) {
	if len(vals) > 0 {
		sw.f64s(unsafe.Slice((*float64)(unsafe.Pointer(&vals[0])), 2*len(vals)))
	}
}

func (sw *sectionWriter) pad8() {
	if pad := int((8 - sw.written%8) % 8); pad > 0 {
		var zero [8]byte
		sw.raw(zero[:pad])
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
	var hdr [indexHeaderSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrIndexFormat, err)
	}
	if string(hdr[0:4]) != indexMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrIndexFormat)
	}
	if crc := binary.LittleEndian.Uint32(hdr[44:48]); crc != crc32.ChecksumIEEE(hdr[4:44]) {
		return nil, fmt.Errorf("%w: header checksum mismatch", ErrIndexFormat)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != indexVersion {
		return nil, fmt.Errorf("%w: file version %d, supported %d (rebuild with kordata -build-index)", ErrIndexVersion, v, indexVersion)
	}
	fp := binary.LittleEndian.Uint64(hdr[8:16])
	if want := g.Fingerprint(); fp != want {
		return nil, fmt.Errorf("%w: index built for graph %016x, loading graph is %016x", ErrIndexFingerprint, fp, want)
	}
	cellSize := int(binary.LittleEndian.Uint32(hdr[16:20]))
	n := int(binary.LittleEndian.Uint32(hdr[20:24]))
	ncells := int(binary.LittleEndian.Uint32(hdr[24:28]))
	b := int(binary.LittleEndian.Uint32(hdr[28:32]))
	payload := binary.LittleEndian.Uint64(hdr[32:40])
	if n != g.NumNodes() {
		return nil, fmt.Errorf("%w: index has %d nodes, graph has %d", ErrIndexFingerprint, n, g.NumNodes())
	}
	wantSize := int64(indexHeaderSize) + int64(payload) + 4
	if payload > 1<<40 || st.Size() != wantSize {
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
		if m, err := mmapFile(f, int(st.Size())); err == nil {
			data, mapped = m, true
		}
	}
	if mapped {
		h := crc32.NewIEEE()
		if _, err := io.CopyBuffer(h, io.NewSectionReader(f, indexHeaderSize, int64(payload)), make([]byte, 256<<10)); err != nil {
			munmapBytes(data)
			return nil, err
		}
		sum = h.Sum32()
	} else {
		if data, err = io.ReadAll(io.MultiReader(bytes.NewReader(hdr[:]), f)); err != nil {
			return nil, err
		}
		sum = crc32.ChecksumIEEE(data[indexHeaderSize : indexHeaderSize+int(payload)])
	}
	o, err := decodeIndex(data, sum, g, cellSize, n, ncells, b, int(payload), mapped)
	if err != nil && mapped {
		munmapBytes(data)
	}
	return o, err
}

// decodeIndex assembles the oracle from the full file contents, whose payload
// checksums to sum. When data is an aligned little-endian mapping the table
// slices alias it directly.
func decodeIndex(data []byte, sum uint32, g *graph.Graph, cellSize, n, ncells, b, payloadLen int, mapped bool) (*PartitionedOracle, error) {
	payload := data[indexHeaderSize : indexHeaderSize+payloadLen]
	if binary.LittleEndian.Uint32(data[indexHeaderSize+payloadLen:]) != sum {
		return nil, fmt.Errorf("%w: payload checksum mismatch", ErrIndexFormat)
	}
	if len(payload) < 8*ncells {
		return nil, fmt.Errorf("%w: truncated counts block", ErrIndexFormat)
	}

	ks := make([]int, ncells)
	nbs := make([]int, ncells)
	sumK, sumNB, sumK2 := 0, 0, 0
	for i := 0; i < ncells; i++ {
		ks[i] = int(binary.LittleEndian.Uint32(payload[i*8:]))
		nbs[i] = int(binary.LittleEndian.Uint32(payload[i*8+4:]))
		sumK += ks[i]
		sumNB += nbs[i]
		sumK2 += ks[i] * ks[i]
	}
	if sumK != n || sumNB != b {
		return nil, fmt.Errorf("%w: counts block disagrees with header (%d/%d nodes, %d/%d borders)",
			ErrIndexFormat, sumK, n, sumNB, b)
	}

	alias := mapped && hostLittleEndian && uintptr(unsafe.Pointer(&payload[0]))%8 == 0
	cur := &payloadCursor{data: payload, off: 8 * ncells, alias: alias}

	o := &PartitionedOracle{
		g:         g,
		cellSize:  cellSize,
		fromDisk:  true,
		fileBytes: int64(len(data)),
		cells:     make([]cellTables, ncells),
	}
	if mapped {
		o.mapped = data
	}
	o.region = cur.i32s(n)
	o.local = cur.i32s(n)
	o.borderIdx = cur.i32s(n)
	o.borders = cur.nids(b)
	cellNodes := cur.nids(sumK)
	o.ovTauPar = cur.i32s(b * b)
	o.ovSigPar = cur.i32s(b * b)
	cellTauPar := cur.i32s(sumK2)
	cellSigPar := cur.i32s(sumK2)
	cur.pad8()
	o.pairMin[ByObjective] = cur.pairs(ncells * ncells)
	o.pairMin[ByBudget] = cur.pairs(ncells * ncells)
	cellTauP := cur.f64s(sumK2)
	cellTauS := cur.f64s(sumK2)
	cellSigP := cur.f64s(sumK2)
	cellSigS := cur.f64s(sumK2)
	o.ovTauP = cur.f64s(b * b)
	o.ovTauS = cur.f64s(b * b)
	o.ovSigP = cur.f64s(b * b)
	o.ovSigS = cur.f64s(b * b)
	if cur.err != nil {
		return nil, cur.err
	}
	if cur.off != payloadLen {
		return nil, fmt.Errorf("%w: payload has %d trailing bytes", ErrIndexFormat, payloadLen-cur.off)
	}

	offK, offK2, offNB := 0, 0, 0
	for i := 0; i < ncells; i++ {
		k, k2 := ks[i], ks[i]*ks[i]
		c := &o.cells[i]
		c.nodes = cellNodes[offK : offK+k : offK+k]
		c.start, c.nb = offNB, nbs[i]
		c.tauPar = cellTauPar[offK2 : offK2+k2 : offK2+k2]
		c.sigPar = cellSigPar[offK2 : offK2+k2 : offK2+k2]
		c.tauP = cellTauP[offK2 : offK2+k2 : offK2+k2]
		c.tauS = cellTauS[offK2 : offK2+k2 : offK2+k2]
		c.sigP = cellSigP[offK2 : offK2+k2 : offK2+k2]
		c.sigS = cellSigS[offK2 : offK2+k2 : offK2+k2]
		offK += k
		offK2 += k2
		offNB += nbs[i]
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

// payloadCursor walks payload sections, either aliasing the underlying bytes
// (aligned little-endian mappings) or decode-copying them.
type payloadCursor struct {
	data  []byte
	off   int
	alias bool
	err   error
}

func (c *payloadCursor) take(bytes int) []byte {
	if c.err != nil {
		return nil
	}
	if c.off+bytes > len(c.data) {
		c.err = fmt.Errorf("%w: truncated payload section", ErrIndexFormat)
		return nil
	}
	s := c.data[c.off : c.off+bytes]
	c.off += bytes
	return s
}

func (c *payloadCursor) i32s(n int) []int32 {
	if n == 0 {
		return nil
	}
	raw := c.take(4 * n)
	if raw == nil {
		return nil
	}
	if c.alias {
		return unsafe.Slice((*int32)(unsafe.Pointer(&raw[0])), n)
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(raw[i*4:]))
	}
	return out
}

func (c *payloadCursor) nids(n int) []graph.NodeID {
	if n == 0 {
		return nil
	}
	raw := c.take(4 * n)
	if raw == nil {
		return nil
	}
	if c.alias {
		return unsafe.Slice((*graph.NodeID)(unsafe.Pointer(&raw[0])), n)
	}
	out := make([]graph.NodeID, n)
	for i := range out {
		out[i] = graph.NodeID(binary.LittleEndian.Uint32(raw[i*4:]))
	}
	return out
}

func (c *payloadCursor) f64s(n int) []float64 {
	if n == 0 {
		return nil
	}
	raw := c.take(8 * n)
	if raw == nil {
		return nil
	}
	if c.alias {
		return unsafe.Slice((*float64)(unsafe.Pointer(&raw[0])), n)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
	}
	return out
}

// pairs reads n score pairs written by sectionWriter.pairs.
func (c *payloadCursor) pairs(n int) []scorePair {
	f := c.f64s(2 * n)
	if f == nil {
		return nil
	}
	return unsafe.Slice((*scorePair)(unsafe.Pointer(&f[0])), n)
}

// pad8 skips the writer's alignment padding. The payload starts at file
// offset 48, itself 8-aligned, so payload-relative alignment equals file
// alignment.
func (c *payloadCursor) pad8() {
	if pad := (8 - c.off%8) % 8; pad > 0 {
		c.take(pad)
	}
}
