// Manifest handling: the MANIFEST file is the single source of truth
// for a snapshot directory. Segment and conn-memo files are immutable
// and content-named; the manifest says which of them constitute the
// current snapshot. It is always written via temp-file + fsync +
// atomic rename, so at every instant the directory holds either the
// previous complete manifest or the new complete manifest — a crash
// mid-save never corrupts an existing store, it only leaves unreferenced
// files for the next save to collect.
package segio

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"ncexplorer/internal/snapshot"
)

const (
	// ManifestName is the manifest's filename inside a snapshot dir.
	ManifestName = "MANIFEST"
	// manifestMagic guards against pointing the loader at arbitrary JSON.
	manifestMagic = "ncexplorer-snapshot"
	// manifestVersion versions the manifest schema independently of the
	// binary segment format.
	manifestVersion = 1

	// SegmentExt / ConnExt / WatchExt are the extensions of the three
	// immutable file kinds a manifest references.
	SegmentExt = ".ncseg"
	ConnExt    = ".nccm"
	WatchExt   = ".ncwl"
)

// SegmentRef locates one segment file and pins its identity: global
// base ID, document count, and the CRC32 of the whole encoded file.
// MinTime/MaxTime mirror the segment's publication-time bounds (Unix
// seconds, inclusive) so a router or replica can reason about a shipped
// snapshot's time coverage without fetching segment bytes; the decoder
// rederives the authoritative bounds from the DOCS section.
//
// Conn, when set, names the segment's conn companion: a content-named
// conn-memo file (same codec as Manifest.ConnFile) holding the
// memoised connectivity values of this segment's documents. Checkpoints
// write one per segment file they write, so a store that was never
// fully saved since its last ingest still opens without re-walking;
// a full save folds them into ConnFile and drops them.
type SegmentRef struct {
	File    string `json:"file"`
	Base    int32  `json:"base"`
	Docs    int    `json:"docs"`
	CRC     uint32 `json:"crc"`
	MinTime int64  `json:"min_time"`
	MaxTime int64  `json:"max_time"`
	Conn    string `json:"conn,omitempty"`
}

// EngineMeta records the engine parameters that determine index
// content. An engine opening the snapshot must run with exactly these
// values or its recomputed scores would diverge from the saved corpus.
type EngineMeta struct {
	Tau               int     `json:"tau"`
	Beta              float64 `json:"beta"`
	Samples           int     `json:"samples"`
	Seed              uint64  `json:"seed"`
	MaxConceptsPerDoc int     `json:"max_concepts_per_doc"`
	AncestorLevels    int     `json:"ancestor_levels"`
	Exact             bool    `json:"exact"`
	MaxSegments       int     `json:"max_segments"`
}

// SourceStatsMeta persists one source's build-time linking statistics.
type SourceStatsMeta struct {
	Articles       int `json:"articles"`
	TotalMentions  int `json:"total_mentions"`
	LinkedMentions int `json:"linked_mentions"`
}

// StatsMeta persists the initial-build IndexStats so a warm-started
// process reports the same /statsz numbers as the process that saved.
type StatsMeta struct {
	Docs       int                        `json:"docs"`
	LinkNanos  int64                      `json:"link_nanos"`
	ScoreNanos int64                      `json:"score_nanos"`
	PerSource  map[string]SourceStatsMeta `json:"per_source,omitempty"`
}

// ShardMeta marks a snapshot as one shard of a federated corpus and
// persists the remote term statistics the shard's engine was scoring
// with, so a warm restart (or a replica opening a shipped snapshot)
// resumes with exactly the corpus-global IDF it had. RemoteBatches
// also recovers the generation split: the manifest Generation is
// global (local batches + remote batches), and an opening engine needs
// the local component back to keep numbering future local ingests.
type ShardMeta struct {
	// Index / Count identify this shard within the cluster layout.
	Index int `json:"index"`
	Count int `json:"count"`
	// RemoteDocs / RemoteTotalLen / RemoteDF are the term statistics of
	// the documents held by the other shards (see textindex.RemoteStats).
	RemoteDocs     int            `json:"remote_docs"`
	RemoteTotalLen int64          `json:"remote_total_len"`
	RemoteDF       map[string]int `json:"remote_df,omitempty"`
	// RemoteBatches counts the ingest batches other shards committed
	// (the seed corpus is generation 1 cluster-wide and counts for none).
	RemoteBatches uint64 `json:"remote_batches"`
}

// Manifest describes one complete snapshot: the ordered segment files,
// the optional conn-memo cache file, the generation stamp, and the
// engine/world parameters needed to reopen it.
type Manifest struct {
	Magic         string `json:"magic"`
	FormatVersion int    `json:"format_version"`
	// Generation is the snapshot generation at save time; an engine
	// opening the store resumes at this generation.
	Generation uint64       `json:"generation"`
	NumDocs    int          `json:"num_docs"`
	Segments   []SegmentRef `json:"segments"`
	// ConnFile names the connectivity-memo cache file, when one was
	// saved. Its entries are content-addressed and never go stale, so a
	// checkpoint may keep referencing a conn file written by an earlier
	// full save; segments written since carry their own companions
	// (SegmentRef.Conn).
	ConnFile    string `json:"conn_file,omitempty"`
	ConnEntries int    `json:"conn_entries,omitempty"`
	// WatchFile names the standing-query state file (watchlists, alert
	// ring buffers, delivery cursors), when the saving engine had any.
	// Like segments it is immutable and content-named; unlike them it is
	// rewritten whenever its content changes, and the manifest swap makes
	// the new state current atomically.
	WatchFile string     `json:"watch_file,omitempty"`
	Engine    EngineMeta `json:"engine"`
	// Shard, when present, marks the snapshot as one shard of a
	// federated corpus: segment bases keep their global IDs (so the
	// local ID space has gaps) and the recorded remote statistics make
	// scoring corpus-global.
	Shard *ShardMeta `json:"shard,omitempty"`
	// World carries facade-level reconstruction hints (e.g. the
	// synthetic-world scale) the core engine does not interpret.
	World map[string]string `json:"world,omitempty"`
	Stats StatsMeta         `json:"stats"`
}

// ReadManifest loads and validates the manifest of a snapshot
// directory. A missing manifest yields ErrNoSnapshot; a malformed one
// ErrCorrupt; a future schema ErrVersionMismatch.
func ReadManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s", ErrNoSnapshot, dir)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: reading manifest: %v", ErrCorrupt, err)
	}
	return ParseManifest(data)
}

// ParseManifest validates raw manifest bytes — the parsing half of
// ReadManifest, split out so a replica can vet a manifest fetched over
// the wire before any file lands on disk.
func ParseManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%w: manifest is not valid JSON: %v", ErrCorrupt, err)
	}
	if m.Magic != manifestMagic {
		return nil, fmt.Errorf("%w: manifest magic %q", ErrCorrupt, m.Magic)
	}
	if m.FormatVersion != manifestVersion {
		return nil, fmt.Errorf("%w: manifest format version %d (this build reads %d)",
			ErrVersionMismatch, m.FormatVersion, manifestVersion)
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// validate checks the manifest's internal consistency. A monolithic
// snapshot's segments must tile [0, NumDocs) contiguously; a shard
// snapshot (Shard present) keeps global bases, so its segments need
// only be ascending and non-overlapping, with NumDocs the sum of the
// local segment lengths.
func (m *Manifest) validate() error {
	if len(m.Segments) == 0 {
		return fmt.Errorf("%w: manifest lists no segments", ErrCorrupt)
	}
	next := int32(0)
	sum := 0
	for i, ref := range m.Segments {
		if ref.File == "" || !auxName(ref.File, SegmentExt) || ref.Docs <= 0 {
			return fmt.Errorf("%w: manifest segment %d: bad file reference %q", ErrCorrupt, i, ref.File)
		}
		if !auxName(ref.Conn, ConnExt) {
			return fmt.Errorf("%w: manifest segment %d: bad conn companion reference %q", ErrCorrupt, i, ref.Conn)
		}
		if m.Shard == nil && ref.Base != next {
			return fmt.Errorf("%w: manifest segment %d: base %d not contiguous (want %d)",
				ErrCorrupt, i, ref.Base, next)
		}
		if m.Shard != nil && ref.Base < next {
			return fmt.Errorf("%w: manifest segment %d: base %d overlaps previous segment (ends at %d)",
				ErrCorrupt, i, ref.Base, next)
		}
		next = ref.Base + int32(ref.Docs)
		sum += ref.Docs
	}
	if sum != m.NumDocs {
		return fmt.Errorf("%w: manifest num_docs %d disagrees with segment sum %d",
			ErrCorrupt, m.NumDocs, sum)
	}
	if m.Shard != nil && (m.Shard.Count < 1 || m.Shard.Index < 0 || m.Shard.Index >= m.Shard.Count ||
		m.Shard.RemoteDocs < 0 || m.Shard.RemoteTotalLen < 0) {
		return fmt.Errorf("%w: manifest shard section inconsistent", ErrCorrupt)
	}
	if !auxName(m.ConnFile, ConnExt) {
		return fmt.Errorf("%w: bad manifest conn file reference %q", ErrCorrupt, m.ConnFile)
	}
	if !auxName(m.WatchFile, WatchExt) {
		return fmt.Errorf("%w: bad manifest watch file reference %q", ErrCorrupt, m.WatchFile)
	}
	return nil
}

// auxName reports whether an optional file reference is absent or a
// plain file name inside the snapshot directory carrying its kind's
// extension — never ".", "..", MANIFEST or another kind's file, which
// a replica would otherwise take for an already-fetched file.
func auxName(name, ext string) bool {
	return name == "" || (name == filepath.Base(name) && strings.HasSuffix(name, ext))
}

// WriteManifest atomically replaces dir's manifest: marshal to a temp
// file, fsync, rename over ManifestName, fsync the directory. A crash
// at any point leaves either the old or the new manifest in place.
func WriteManifest(dir string, m *Manifest) error {
	m.Magic = manifestMagic
	m.FormatVersion = manifestVersion
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return writeAtomic(dir, ManifestName, append(data, '\n'))
}

// ReadSegmentFile reads, CRC-verifies, and decodes one referenced
// segment file, returning the segment and its on-disk size. The
// whole-file CRC pinned in the manifest catches a swapped or regressed
// file even when the file itself is internally consistent.
func ReadSegmentFile(dir string, ref SegmentRef) (*snapshot.Segment, int, error) {
	path := filepath.Join(dir, ref.File)
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, 0, fmt.Errorf("%w: manifest references missing segment file %s: %v", ErrCorrupt, ref.File, err)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("%w: reading segment file %s: %v", ErrCorrupt, ref.File, err)
	}
	// Sniff the header version before any CRC work: a cross-version file
	// (e.g. a stale old-format segment in a partially upgraded store)
	// rarely matches the manifest CRC, and reporting that mismatch would
	// misdiagnose a version skew as corruption.
	if len(data) >= 6 && string(data[:4]) == segmentMagic {
		if v := binary.LittleEndian.Uint16(data[4:6]); v != formatVersion {
			return nil, 0, fmt.Errorf("%w: segment file %s: format version %d (this build reads %d)",
				ErrVersionMismatch, ref.File, v, formatVersion)
		}
	}
	if sum := crc32.ChecksumIEEE(data); sum != ref.CRC {
		return nil, 0, fmt.Errorf("%w: segment file %s: file CRC %08x does not match manifest %08x",
			ErrCorrupt, ref.File, sum, ref.CRC)
	}
	s, err := DecodeSegment(data)
	if err != nil {
		return nil, 0, fmt.Errorf("segment file %s: %w", ref.File, err)
	}
	if int(s.Base) != int(ref.Base) || s.Len() != ref.Docs {
		return nil, 0, fmt.Errorf("%w: segment file %s: base/docs (%d, %d) disagree with manifest (%d, %d)",
			ErrCorrupt, ref.File, s.Base, s.Len(), ref.Base, ref.Docs)
	}
	return s, len(data), nil
}

// ReadConnFile reads a manifest-referenced conn-memo file's bytes
// (decode with DecodeConn). A missing or unreadable file is corruption:
// the manifest promised it.
func ReadConnFile(dir, name string) ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(dir, name))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("%w: manifest references missing conn-memo file %s: %v", ErrCorrupt, name, err)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: reading conn-memo file %s: %v", ErrCorrupt, name, err)
	}
	return data, nil
}

// ReadWatchFile reads a manifest-referenced standing-query state file's
// bytes (decode with the watch package's codec). A missing or
// unreadable file is corruption: the manifest promised it.
func ReadWatchFile(dir, name string) ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(dir, name))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("%w: manifest references missing watch file %s: %v", ErrCorrupt, name, err)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: reading watch file %s: %v", ErrCorrupt, name, err)
	}
	return data, nil
}

// SegmentFileName derives the canonical content-addressed name for an
// encoded segment: base, length, and whole-file CRC. Equal content
// yields equal names, which is what lets a save skip files that are
// already on disk.
func SegmentFileName(base int32, docs int, crc uint32) string {
	return fmt.Sprintf("seg-%010d-%07d-%08x%s", base, docs, crc, SegmentExt)
}

// CompanionPrefix starts the name of every segment's conn companion.
const CompanionPrefix = "segconn-"

// CompanionFileName derives the content-addressed name of a segment's
// conn companion: the document range it covers plus the FNV-1a hash of
// the encoded bytes. Not CRC32 — a conn file ends with the CRC32 of its
// payload, and the CRC32 of data followed by its own CRC is fixed by
// the length alone, so every same-sized companion would share a name.
func CompanionFileName(base int32, docs int, data []byte) string {
	h := fnv.New32a()
	h.Write(data)
	return fmt.Sprintf("%s%010d-%07d-%08x%s", CompanionPrefix, base, docs, h.Sum32(), ConnExt)
}

// WriteFileAtomic durably writes an immutable artifact (segment or
// conn-memo file) under dir/name via temp + fsync + rename. If the
// target already exists it is atomically replaced with identical
// content (names are content-addressed), so concurrent or repeated
// saves converge.
func WriteFileAtomic(dir, name string, data []byte) error {
	return writeAtomic(dir, name, data)
}

// WriteFileDeferSync writes dir/name via temp + fsync + rename but
// leaves the directory entry's durability to a later SyncDir(dir): a
// writer placing several files before one manifest swap pays one
// directory fsync for the whole group instead of one per file. The
// file's CONTENT is durable on return; only the rename may still be
// lost to a crash, which is indistinguishable from the file never
// having been written — safe as long as no manifest references it
// before SyncDir.
func WriteFileDeferSync(dir, name string, data []byte) error {
	return writeFileDeferSync(dir, name, data)
}

// SyncDir fsyncs the directory, making every prior rename into it
// durable. Pair with WriteFileDeferSync.
func SyncDir(dir string) error { return syncDir(dir) }

func writeAtomic(dir, name string, data []byte) error {
	if err := writeFileDeferSync(dir, name, data); err != nil {
		return err
	}
	return syncDir(dir)
}

func writeFileDeferSync(dir, name string, data []byte) error {
	f, err := os.CreateTemp(dir, name+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, werr := f.Write(data)
	if serr := f.Sync(); werr == nil {
		werr = serr
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return werr
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// syncDir fsyncs the directory so the rename itself is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	// Some filesystems reject fsync on directories; the rename is still
	// atomic there, just not yet durable — acceptable on such systems.
	if err := d.Sync(); err != nil && !errors.Is(err, fs.ErrInvalid) {
		return err
	}
	return nil
}

// CollectGarbage removes segment/conn files in dir that the manifest
// does not reference — leftovers of interrupted or superseded saves.
// Call it only after the new manifest is durably in place. Unremovable
// files are skipped (they stay garbage; the next save retries).
func CollectGarbage(dir string, m *Manifest) (removed []string) {
	keep := map[string]bool{ManifestName: true}
	for _, ref := range m.Segments {
		keep[ref.File] = true
		if ref.Conn != "" {
			keep[ref.Conn] = true
		}
	}
	if m.ConnFile != "" {
		keep[m.ConnFile] = true
	}
	if m.WatchFile != "" {
		keep[m.WatchFile] = true
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || keep[name] {
			continue
		}
		if !strings.HasSuffix(name, SegmentExt) && !strings.HasSuffix(name, ConnExt) &&
			!strings.HasSuffix(name, WatchExt) && !strings.Contains(name, ".tmp-") {
			continue
		}
		if os.Remove(filepath.Join(dir, name)) == nil {
			removed = append(removed, name)
		}
	}
	sort.Strings(removed)
	return removed
}
