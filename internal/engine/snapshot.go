package engine

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"fastintersect/internal/invindex"
	"fastintersect/internal/segment"
	"fastintersect/internal/sets"
)

// Snapshot persistence: a serialized image of the engine's whole tier, one
// file per shard plus a JSON manifest, for instant restart (fsiserve
// -snapshot-dir) and — down the road — segment shipping between nodes.
//
// Shard file layout (see internal/segment codec.go for the section format):
//
//	u32 magic "FSNP"   u16 version   u8 storage
//	section: base       (terms extracted from the index, tombs = baseTombs)
//	uvarint frozenCount
//	frozenCount × section: frozen segment (terms + its tombstone filter)
//	section: active     (terms, no tombs)
//	u32 CRC-32 (IEEE) of everything above
//
// Posting payloads are varint delta-encoded by the segment codec; on load
// the base is rebuilt through AddPosting + BuildParallel (so the stored
// encodings are re-chosen for the configured storage), while frozen and
// active segments load directly with no preprocessing — that asymmetry is
// the point of serializable segments: only the base pays a build.

const (
	snapMagic    = 0x46534E50 // "FSNP"
	snapVersion  = 1
	manifestName = "MANIFEST.json"
)

// snapManifest describes one snapshot directory.
type snapManifest struct {
	Version    int    `json:"version"`
	Shards     int    `json:"shards"`
	Storage    string `json:"storage"`
	Generation uint64 `json:"generation"`
}

// SnapshotExists reports whether dir holds a snapshot manifest.
func SnapshotExists(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, manifestName))
	return err == nil
}

// SaveSnapshot serializes the engine's current tier — every shard's base,
// base tombstones, frozen segments and active segment — into dir (created if
// missing), one file per shard plus a manifest. Each shard is written under
// its read lock, so the file is an atomic cut of that shard; queries and
// mutations on other shards proceed concurrently. Each file is written and
// fsynced under a temp name unique to this save, then renamed, so concurrent
// saves into one directory never take each other's temp files. The
// directory is fsynced before the manifest is written and again after, so a
// crash mid-save never leaves a loadable-looking partial snapshot. Returns
// ErrNotBuilt before the first Install.
func (e *Engine) SaveSnapshot(dir string) error {
	shards := e.snapshot()
	if shards == nil {
		return ErrNotBuilt
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("engine: snapshot: %w", err)
	}
	gen := e.gen.Load()
	for i, s := range shards {
		if err := writeFileAtomic(dir, shardFile(i), func(w io.Writer) error { return saveShard(w, s) }); err != nil {
			return fmt.Errorf("engine: snapshot shard %d: %w", i, err)
		}
	}
	// The shard renames must be durable before the manifest that names them.
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("engine: snapshot: %w", err)
	}
	man := snapManifest{
		Version:    snapVersion,
		Shards:     len(shards),
		Storage:    e.cfg.Storage.String(),
		Generation: gen,
	}
	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return fmt.Errorf("engine: snapshot: %w", err)
	}
	err = writeFileAtomic(dir, manifestName, func(w io.Writer) error {
		_, err := w.Write(append(data, '\n'))
		return err
	})
	if err == nil {
		err = syncDir(dir)
	}
	if err != nil {
		return fmt.Errorf("engine: snapshot: %w", err)
	}
	return nil
}

func shardFile(i int) string { return fmt.Sprintf("shard-%04d.seg", i) }

// writeFileAtomic writes dir/name through write: into a temp file of its own
// in dir, fsynced and closed, then renamed over name. The temp file is
// removed on any failure.
func writeFileAtomic(dir, name string, write func(io.Writer) error) error {
	f, err := os.CreateTemp(dir, name+".*.tmp")
	if err != nil {
		return err
	}
	err = f.Chmod(0o644)
	if err == nil {
		err = write(f)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), filepath.Join(dir, name))
	}
	if err != nil {
		os.Remove(f.Name()) //nolint:errcheck // best effort; err is the failure to report
	}
	return err
}

// syncDir fsyncs a directory, making the renames into it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// saveShard writes one shard's file body: its tier under the shard's read
// lock, then the CRC-32 of everything written.
func saveShard(f io.Writer, s *shard) error {
	crc := crc32.NewIEEE()
	w := bufio.NewWriter(io.MultiWriter(f, crc))
	s.mu.RLock()
	err := writeShardLocked(w, s)
	s.mu.RUnlock()
	if err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	var sum [4]byte
	binary.BigEndian.PutUint32(sum[:], crc.Sum32())
	_, err = f.Write(sum[:])
	return err
}

// writeShardLocked streams one shard's tier. Caller holds s.mu (read).
func writeShardLocked(w *bufio.Writer, s *shard) error {
	var hdr [7]byte
	binary.BigEndian.PutUint32(hdr[0:], snapMagic)
	binary.BigEndian.PutUint16(hdr[4:], snapVersion)
	hdr[6] = byte(s.base.Storage())
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	// Base: terms extracted from the index (decoded when compressed), with
	// the base tombstone filter riding in the section's tombs slot.
	if err := segment.WriteSection(w, s.base.Terms(), s.base.TermDocs, s.baseTombs); err != nil {
		return fmt.Errorf("base: %w", err)
	}
	var scratch [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(scratch[:], uint64(len(s.frozen)))
	if _, err := w.Write(scratch[:n]); err != nil {
		return err
	}
	for i, fz := range s.frozen {
		if err := fz.WriteFrozen(w); err != nil {
			return fmt.Errorf("frozen %d: %w", i, err)
		}
	}
	if err := s.active.WriteMutable(w); err != nil {
		return fmt.Errorf("active: %w", err)
	}
	return nil
}

// LoadSnapshot restores a snapshot written by SaveSnapshot into the engine,
// replacing any installed index (the same retire-then-swap handshake Install
// uses, so concurrent mutations land in the restored shard set). The
// manifest's shard count and storage must match the engine's configuration —
// a snapshot is an image of a specific partitioning. Bases are rebuilt
// through the parallel build path (encodings re-chosen); frozen and active
// segments load directly with no preprocessing.
func (e *Engine) LoadSnapshot(dir string) error {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return fmt.Errorf("engine: snapshot: %w", err)
	}
	var man snapManifest
	if err := json.Unmarshal(data, &man); err != nil {
		return fmt.Errorf("engine: snapshot manifest: %w", err)
	}
	if man.Version != snapVersion {
		return fmt.Errorf("engine: snapshot version %d not supported (want %d)", man.Version, snapVersion)
	}
	if man.Shards != e.cfg.Shards {
		return fmt.Errorf("engine: snapshot has %d shards, engine is configured for %d", man.Shards, e.cfg.Shards)
	}
	if man.Storage != e.cfg.Storage.String() {
		return fmt.Errorf("engine: snapshot storage %q, engine is configured for %q", man.Storage, e.cfg.Storage)
	}
	perShard := e.cfg.Workers / e.cfg.Shards
	if perShard < 1 {
		perShard = 1
	}
	shards := make([]*shard, man.Shards)
	errs := make([]error, man.Shards)
	var wg sync.WaitGroup
	for i := range shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			shards[i], errs[i] = e.loadShard(filepath.Join(dir, shardFile(i)), i, perShard)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("engine: snapshot shard %d: %w", i, err)
		}
	}
	e.mu.Lock()
	old := e.shards
	for _, s := range old {
		s.mu.Lock()
		s.retired = true
		s.mu.Unlock()
	}
	e.shards = shards
	e.mu.Unlock()
	e.gen.Add(1)
	e.statsEpoch.Add(1) // restored bases may encode terms differently
	e.met.rebuilds.Inc()
	return nil
}

// loadShard reads and decodes the file of shard i (see decodeShard).
func (e *Engine) loadShard(path string, i, workers int) (*shard, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return e.decodeShard(data, i, workers)
}

// decodeShard decodes one shard file's bytes into shard i. Every docID the
// file carries — base postings and tombstones, frozen and active segment
// documents — must hash to shard i: a file restored into the wrong shard
// (say, two shard files swapped on disk) would otherwise load cleanly and
// then mis-route every delete and overwrite of its documents.
func (e *Engine) decodeShard(data []byte, i, workers int) (*shard, error) {
	if len(data) < 11 { // header + CRC
		return nil, fmt.Errorf("truncated file (%d bytes)", len(data))
	}
	payload, sum := data[:len(data)-4], binary.BigEndian.Uint32(data[len(data)-4:])
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return nil, fmt.Errorf("checksum mismatch (file %08x, computed %08x)", sum, got)
	}
	if m := binary.BigEndian.Uint32(payload[0:]); m != snapMagic {
		return nil, fmt.Errorf("bad magic %08x", m)
	}
	if v := binary.BigEndian.Uint16(payload[4:]); v != snapVersion {
		return nil, fmt.Errorf("unsupported shard version %d", v)
	}
	if st := invindex.Storage(payload[6]); st != e.cfg.Storage {
		return nil, fmt.Errorf("shard storage %v, engine configured for %v", st, e.cfg.Storage)
	}
	r := bufio.NewReader(bytes.NewReader(payload[7:]))
	baseTerms, baseTombs, err := segment.ReadSection(r)
	if err != nil {
		return nil, fmt.Errorf("base: %w", err)
	}
	if err := e.checkPartition(baseTombs, i); err != nil {
		return nil, fmt.Errorf("base tombstones: %w", err)
	}
	ix := invindex.NewWithStorage(e.cfg.Storage, e.cfg.IndexOptions...)
	for term, ps := range baseTerms {
		if err := e.checkPartition(ps, i); err != nil {
			return nil, fmt.Errorf("base term %q: %w", term, err)
		}
		if err := ix.AddPosting(term, ps); err != nil {
			return nil, fmt.Errorf("base term %q: %w", term, err)
		}
	}
	if err := ix.BuildParallel(workers); err != nil {
		return nil, fmt.Errorf("base build: %w", err)
	}
	s := newShard(ix)
	// Keep only tombstones for documents the base actually holds, preserving
	// the baseTombs ⊆ baseDocs invariant liveLocked depends on.
	for _, id := range baseTombs {
		if sets.Contains(s.baseDocs, id) {
			s.baseTombs, _ = sets.InsertSorted(s.baseTombs, id)
		}
	}
	frozenCount, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("frozen count: %w", err)
	}
	if frozenCount > 1<<16 {
		return nil, fmt.Errorf("implausible frozen segment count %d", frozenCount)
	}
	for k := uint64(0); k < frozenCount; k++ {
		fz, err := segment.ReadFrozen(r)
		if err != nil {
			return nil, fmt.Errorf("frozen %d: %w", k, err)
		}
		if err := e.checkPartition(fz.DocIDs(), i); err != nil {
			return nil, fmt.Errorf("frozen %d: %w", k, err)
		}
		s.frozen = append(s.frozen, fz)
	}
	active, err := segment.ReadMutable(r)
	if err != nil {
		return nil, fmt.Errorf("active: %w", err)
	}
	for _, term := range active.Terms() {
		if err := e.checkPartition(active.Postings(term), i); err != nil {
			return nil, fmt.Errorf("active term %q: %w", term, err)
		}
	}
	s.active = active
	if _, err := r.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("trailing bytes after active segment")
	}
	return s, nil
}

// checkPartition rejects the first docID of ids that does not hash to
// shard i.
func (e *Engine) checkPartition(ids []uint32, i int) error {
	for _, id := range ids {
		if home := shardOf(id, e.cfg.Shards); home != i {
			return fmt.Errorf("doc %d belongs to shard %d, not %d", id, home, i)
		}
	}
	return nil
}
