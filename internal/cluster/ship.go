// Package cluster is the multi-node serving layer: segment shipping
// from leaders to replicas (ship.go), the replica catch-up loop
// (replica.go), and the exact scatter-gather query router (router.go).
//
// The replication unit is the segio snapshot. A leader checkpoints
// every commit into its data directory — immutable, content-addressed
// segment files under an atomically replaced MANIFEST — and serves
// that directory over two internal endpoints. A replica polls the
// manifest, fetches only the files it has never seen (content
// addressing makes "never seen" a pure name check), verifies every
// byte against the checksums the names and manifest pin, writes its
// own MANIFEST last, and warm-opens the result exactly as a restart
// would. Catch-up cost is therefore proportional to what changed, not
// to corpus size, and a half-fetched store is never openable — the
// manifest only lands after everything it references.
package cluster

import (
	"context"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"

	"ncexplorer/internal/segio"
)

// ShipCounters is a point-in-time snapshot of a Fetcher's activity.
type ShipCounters struct {
	ManifestPolls   int64 `json:"manifest_polls"`
	SegmentsFetched int64 `json:"segments_fetched"`
	SegmentsReused  int64 `json:"segments_reused"`
	BytesShipped    int64 `json:"bytes_shipped"`
}

// Fetcher mirrors a leader's snapshot directory into a local one.
// Safe for use by one syncing goroutine; the counters may be read
// concurrently.
type Fetcher struct {
	// BaseURL is the leader's address, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Dir is the local snapshot directory (created if needed).
	Dir string
	// Client is the HTTP client; nil means http.DefaultClient.
	Client *http.Client

	manifestPolls   atomic.Int64
	segmentsFetched atomic.Int64
	segmentsReused  atomic.Int64
	bytesShipped    atomic.Int64
}

// Counters snapshots the fetcher's shipping counters.
func (f *Fetcher) Counters() ShipCounters {
	return ShipCounters{
		ManifestPolls:   f.manifestPolls.Load(),
		SegmentsFetched: f.segmentsFetched.Load(),
		SegmentsReused:  f.segmentsReused.Load(),
		BytesShipped:    f.bytesShipped.Load(),
	}
}

func (f *Fetcher) client() *http.Client {
	if f.Client != nil {
		return f.Client
	}
	return http.DefaultClient
}

// Sync brings Dir up to the leader's current snapshot. It returns the
// leader manifest and whether the local store changed (false means the
// local manifest already described the identical snapshot). On any
// error the local directory still holds its previous complete
// snapshot: the new manifest is written only after every referenced
// file is verified on disk.
func (f *Fetcher) Sync(ctx context.Context) (*segio.Manifest, bool, error) {
	f.manifestPolls.Add(1)
	raw, err := f.get(ctx, "/internal/manifest", "")
	if err != nil {
		return nil, false, err
	}
	m, err := segio.ParseManifest(raw)
	if err != nil {
		return nil, false, fmt.Errorf("cluster: leader manifest: %w", err)
	}
	if err := os.MkdirAll(f.Dir, 0o755); err != nil {
		return nil, false, err
	}
	if local, err := segio.ReadManifest(f.Dir); err == nil && sameSnapshot(local, m) {
		return m, false, nil
	}
	for _, ref := range m.Segments {
		crc := ref.CRC
		if err := f.fetchFile(ctx, ref.File, func(data []byte) error {
			if sum := crc32.ChecksumIEEE(data); sum != crc {
				return fmt.Errorf("checksum %08x does not match the manifest's %08x", sum, crc)
			}
			return nil
		}); err != nil {
			return nil, false, err
		}
		// The segment's conn companion ships with it, so the replica's
		// open walks nothing the leader already walked.
		if ref.Conn != "" {
			if err := f.fetchNamed(ctx, ref.Conn); err != nil {
				return nil, false, err
			}
		}
	}
	if m.WatchFile != "" {
		if err := f.fetchNamed(ctx, m.WatchFile); err != nil {
			return nil, false, err
		}
	}
	// Every referenced file is in place and verified; one directory
	// fsync makes all their renames durable before the manifest —
	// the atomic commit point — is published.
	if err := segio.SyncDir(f.Dir); err != nil {
		return nil, false, err
	}
	if err := segio.WriteFileAtomic(f.Dir, segio.ManifestName, raw); err != nil {
		return nil, false, err
	}
	segio.CollectGarbage(f.Dir, m)
	return m, true, nil
}

// sameSnapshot reports whether two manifests describe the identical
// snapshot. Generation alone is not enough: background segment merges
// reorganise files without advancing the generation. Refs compare
// whole, so a changed conn companion counts as a change.
func sameSnapshot(a, b *segio.Manifest) bool {
	if a.Generation != b.Generation || len(a.Segments) != len(b.Segments) || a.WatchFile != b.WatchFile {
		return false
	}
	for i := range a.Segments {
		if a.Segments[i] != b.Segments[i] {
			return false
		}
	}
	return true
}

// fetchNamed fetches a conn companion or watch file, whose name pins
// its content (segio.CheckContentName — the rule ReadStore applies
// too).
func (f *Fetcher) fetchNamed(ctx context.Context, name string) error {
	return f.fetchFile(ctx, name, func(data []byte) error { return segio.CheckContentName(name, data) })
}

// fetchFile ensures name exists in Dir, fetching it from the leader if
// absent and accepting the bytes only when verify passes. Files are
// immutable and content-addressed, so an existing file is reused
// without a byte moving (SegmentsReused): it landed under its name only
// after verify passed, and the open re-checks every checksum anyway. A
// partial download persists as name+".part" and resumes with a Range
// request on the next attempt.
func (f *Fetcher) fetchFile(ctx context.Context, name string, verify func([]byte) error) error {
	path := filepath.Join(f.Dir, name)
	if _, err := os.Stat(path); err == nil {
		f.segmentsReused.Add(1)
		return nil
	}
	part := path + ".part"
	var have []byte
	if data, err := os.ReadFile(part); err == nil {
		have = data
	}
	body, resumed, err := f.getFile(ctx, "/internal/segments/"+name, int64(len(have)))
	if err != nil {
		return err
	}
	if resumed && len(have) > 0 {
		body = append(have, body...)
	}
	if err := verify(body); err != nil {
		os.Remove(part)
		return fmt.Errorf("cluster: fetched %s: %w", name, err)
	}
	f.segmentsFetched.Add(1)
	// Deferred dirsync: Sync's manifest publish syncs the directory once
	// for every file fetched in the round.
	if err := segio.WriteFileDeferSync(f.Dir, name, body); err != nil {
		return err
	}
	os.Remove(part)
	return nil
}

// get issues one GET and returns the full body (200 only).
func (f *Fetcher) get(ctx context.Context, path, rangeHeader string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.BaseURL+path, nil)
	if err != nil {
		return nil, err
	}
	if rangeHeader != "" {
		req.Header.Set("Range", rangeHeader)
	}
	resp, err := f.client().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusPartialContent {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("cluster: GET %s: %s", path, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// getFile fetches a file, asking the leader to resume from `from`
// bytes when a partial download exists. Returns the body and whether
// the server honoured the resume (206) — a 200 means it sent the whole
// file and the partial prefix must be discarded.
func (f *Fetcher) getFile(ctx context.Context, path string, from int64) ([]byte, bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.BaseURL+path, nil)
	if err != nil {
		return nil, false, err
	}
	if from > 0 {
		req.Header.Set("Range", "bytes="+strconv.FormatInt(from, 10)+"-")
	}
	resp, err := f.client().Do(req)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK, http.StatusPartialContent:
	default:
		io.Copy(io.Discard, resp.Body)
		return nil, false, fmt.Errorf("cluster: GET %s: %s", path, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		// Keep what arrived so the next attempt resumes instead of
		// refetching; the checksum gate makes a stale prefix harmless.
		if len(body) > 0 {
			all := body
			if resp.StatusCode == http.StatusPartialContent {
				prefix, _ := os.ReadFile(filepath.Join(f.Dir, filepath.Base(path)) + ".part")
				all = append(append([]byte(nil), prefix...), body...)
			}
			os.WriteFile(filepath.Join(f.Dir, filepath.Base(path))+".part", all, 0o644)
		}
		return nil, false, err
	}
	f.bytesShipped.Add(int64(len(body)))
	return body, resp.StatusCode == http.StatusPartialContent, nil
}
