package wal

import (
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// FS is the narrow filesystem surface the log (and the delta layer's
// snapshot/manifest machinery) writes through. The indirection exists for
// one reason: internal/faultfs wraps it to inject short writes, fsync
// errors and crash points deterministically, so recovery is tested against
// the failures it claims to survive. Production code uses OSFS.
//
// All paths are absolute or process-relative, exactly as for the os
// package.
type FS interface {
	// MkdirAll creates dir and any missing parents.
	MkdirAll(dir string) error
	// Create opens name for writing, truncating any existing file.
	Create(name string) (File, error)
	// Open opens name for reading.
	Open(name string) (io.ReadCloser, error)
	// ReadDir lists the names (not paths) of dir's entries, sorted.
	ReadDir(dir string) ([]string, error)
	// Remove deletes name.
	Remove(name string) error
	// Rename atomically replaces newname with oldname (both in the same
	// directory); it is the commit point of every multi-file update.
	Rename(oldname, newname string) error
	// SyncDir flushes dir's entries to stable storage. File creation and
	// rename mutate the directory, not the file, so fsyncing file data
	// alone does not make either survive a machine crash.
	SyncDir(dir string) error
}

// File is a writable log or snapshot file.
type File interface {
	io.Writer
	// Sync flushes the file's written data to stable storage.
	Sync() error
	Close() error
}

// osFS is the production FS over the real filesystem.
type osFS struct{}

// OSFS returns the production filesystem.
func OSFS() FS { return osFS{} }

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) Create(name string) (File, error) {
	return os.Create(name)
}

func (osFS) Open(name string) (io.ReadCloser, error) { return os.Open(name) }

func (osFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		names = append(names, e.Name())
	}
	return names, nil
}

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

func (osFS) SyncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// WriteFileAtomic writes data to name via a temporary file and a rename, so
// readers only ever observe the old or the complete new content. The data
// is fsynced before the rename and the directory after it: when
// WriteFileAtomic returns nil the new content survives a machine crash and
// cannot be reordered after later directory operations.
func WriteFileAtomic(fsys FS, name string, write func(io.Writer) error) error {
	tmp := name + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return err
	}
	if err := fsys.Rename(tmp, name); err != nil {
		fsys.Remove(tmp)
		return err
	}
	return fsys.SyncDir(filepath.Dir(name))
}

// ReadJSON decodes the JSON file dir/name (a manifest WriteFileAtomic
// committed) into v and reports whether it exists. Only "does not exist" is
// found=false, a fresh store; any other error fails the open, because taking
// it for "no manifest" would silently restart a durable store from scratch.
func ReadJSON(fsys FS, dir, name string, v any) (found bool, err error) {
	f, err := fsys.Open(join(dir, name))
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	defer f.Close()
	return true, json.NewDecoder(f).Decode(v)
}

// join is filepath.Join, aliased so every path the package builds goes
// through one place.
func join(parts ...string) string { return filepath.Join(parts...) }
