// Package store is the controller's artifact layer: a content-addressed
// blob store plus per-run manifests. Every artifact a run produces —
// grid logs, flow traces, benchmark results, policy checkpoints, rendered
// figure markdown/CSV — is written once under its sha256
// (blobs/sha256/<first two hex>/<hash>) and referenced by name from the
// run's manifest, so identical outputs across runs share storage, a
// manifest's hashes double as an integrity check, and "recalc" can
// re-render figures from stored bytes with a byte-identity guarantee:
// same input hash in, same output hash out.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Store is a content-addressed blob store with a manifest directory,
// rooted at one filesystem path:
//
//	<root>/blobs/sha256/<aa>/<hash>   blob contents (immutable)
//	<root>/runs/<id>.json             run manifests (atomically replaced)
//
// Blob writes are idempotent and atomic (temp file + rename), so
// concurrent writers of the same content are safe and a crashed write
// never leaves a partial blob under its final name.
type Store struct {
	root string
}

// Open creates (if needed) and returns the store rooted at dir.
func Open(dir string) (*Store, error) {
	for _, sub := range []string{filepath.Join(dir, "blobs", "sha256"), filepath.Join(dir, "runs")} {
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	return &Store{root: dir}, nil
}

// Root returns the store's root directory.
func (s *Store) Root() string { return s.root }

// HashBytes returns the store's content address for data: the sha256
// hex digest.
func HashBytes(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// blobPath maps a hash to its blob file path.
func (s *Store) blobPath(hash string) string {
	return filepath.Join(s.root, "blobs", "sha256", hash[:2], hash)
}

// Put stores data and returns its hash. Idempotent: re-putting existing
// content is a no-op.
func (s *Store) Put(data []byte) (string, error) {
	hash := HashBytes(data)
	path := s.blobPath(hash)
	if _, err := os.Stat(path); err == nil {
		return hash, nil // already stored; content-addressing makes it identical
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".put-*")
	if err != nil {
		return "", fmt.Errorf("store: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return "", fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return "", fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return "", fmt.Errorf("store: %w", err)
	}
	return hash, nil
}

// Get returns the blob for hash, verifying content integrity on read.
func (s *Store) Get(hash string) ([]byte, error) {
	if len(hash) < 3 || strings.ContainsAny(hash, "/\\.") {
		return nil, fmt.Errorf("store: invalid hash %q", hash)
	}
	data, err := os.ReadFile(s.blobPath(hash))
	if err != nil {
		return nil, fmt.Errorf("store: blob %s: %w", hash, err)
	}
	if got := HashBytes(data); got != hash {
		return nil, fmt.Errorf("store: blob %s corrupt (content hashes to %s)", hash, got)
	}
	return data, nil
}

// Has reports whether the blob exists.
func (s *Store) Has(hash string) bool {
	if len(hash) < 3 {
		return false
	}
	_, err := os.Stat(s.blobPath(hash))
	return err == nil
}

// Artifact is one named run output: the content address plus its size.
type Artifact struct {
	Hash  string `json:"hash"`
	Bytes int    `json:"bytes"`
}

// Run statuses, the manifest lifecycle: queued → running → done,
// failed, or canceled.
const (
	StatusQueued   = "queued"
	StatusRunning  = "running"
	StatusDone     = "done"
	StatusFailed   = "failed"
	StatusCanceled = "canceled"
)

// Manifest is one run's durable record: what was asked (the submitted
// spec, verbatim), where the code stood (git revision), what happened
// (status, timing, error), and every artifact produced, by name →
// content address. It is the unit the controller lists, serves, and
// recalcs from.
type Manifest struct {
	ID      string          `json:"id"`
	Name    string          `json:"name"`
	Kind    string          `json:"kind"` // "run" or "sweep"
	Spec    json.RawMessage `json:"spec"`
	GitRev  string          `json:"git_rev,omitempty"`
	Status  string          `json:"status"`
	Error   string          `json:"error,omitempty"`
	Created time.Time       `json:"created"`
	Started time.Time       `json:"started,omitempty"`
	Ended   time.Time       `json:"ended,omitempty"`
	// Cells is the grid size recorded before execution starts.
	Cells int `json:"cells,omitempty"`
	// Artifacts maps artifact names (grid.jsonl, figure.md, matrix.csv,
	// ...) to their blobs.
	Artifacts map[string]Artifact `json:"artifacts,omitempty"`
}

// manifestPath maps a run ID to its manifest file. IDs are generated by
// the controller (NewRunID) and validated on the read path so a crafted
// ID cannot escape the runs directory.
func (s *Store) manifestPath(id string) (string, error) {
	if id == "" || strings.ContainsAny(id, "/\\") || strings.Contains(id, "..") {
		return "", fmt.Errorf("store: invalid run id %q", id)
	}
	return filepath.Join(s.root, "runs", id+".json"), nil
}

// PutManifest writes the manifest atomically (temp + rename), replacing
// any previous version.
func (s *Store) PutManifest(m *Manifest) error {
	path, err := s.manifestPath(m.ID)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("store: manifest %s: %w", m.ID, err)
	}
	data = append(data, '\n')
	tmp, err := os.CreateTemp(filepath.Dir(path), ".manifest-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// GetManifest loads one run manifest by ID.
func (s *Store) GetManifest(id string) (*Manifest, error) {
	path, err := s.manifestPath(id)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("store: run %s: %w", id, err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("store: run %s: %w", id, err)
	}
	return &m, nil
}

// ListManifests returns every run manifest, newest first (by creation
// time, then ID for a stable order).
func (s *Store) ListManifests() ([]*Manifest, error) {
	entries, err := os.ReadDir(filepath.Join(s.root, "runs"))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var out []*Manifest
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") || strings.HasPrefix(name, ".") {
			continue
		}
		m, err := s.GetManifest(strings.TrimSuffix(name, ".json"))
		if err != nil {
			continue // a manifest mid-rename or corrupt: skip, don't fail the listing
		}
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Created.Equal(out[j].Created) {
			return out[i].Created.After(out[j].Created)
		}
		return out[i].ID > out[j].ID
	})
	return out, nil
}

// AddArtifact stores data as a blob and records it on the manifest
// under name (replacing a previous artifact of the same name). The
// caller still owns persisting the manifest via PutManifest.
func (s *Store) AddArtifact(m *Manifest, name string, data []byte) error {
	hash, err := s.Put(data)
	if err != nil {
		return err
	}
	if m.Artifacts == nil {
		m.Artifacts = make(map[string]Artifact)
	}
	m.Artifacts[name] = Artifact{Hash: hash, Bytes: len(data)}
	return nil
}

// GetArtifact returns the named artifact's bytes from a manifest.
func (s *Store) GetArtifact(m *Manifest, name string) ([]byte, error) {
	a, ok := m.Artifacts[name]
	if !ok {
		return nil, fmt.Errorf("store: run %s has no artifact %q", m.ID, name)
	}
	return s.Get(a.Hash)
}
