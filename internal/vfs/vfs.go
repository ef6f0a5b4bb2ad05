// Package vfs is a versioned, hierarchical, in-memory file store: the
// primary storage site of every datum that leases cover.
//
// The paper (§2) is explicit that the data covered by leases are not only
// file contents: "the cache must also hold the name-to-file binding and
// permission information, and it needs a lease over this information in
// order to use that information to perform the open. Similarly,
// modification of this information, such as renaming the file, would
// constitute a write." The store therefore exposes two kinds of datum,
// file contents and directory bindings, each with its own monotonically
// increasing version number. The lease layer (internal/core) addresses
// data by Datum values and uses versions for revalidation when a lease is
// extended after expiry.
//
// Writes are applied atomically under a single store lock; durability is
// out of scope (the paper assumes "writes are persistent at the server
// across a crash" — we model a crash as the loss of lease soft state, not
// file data, and the store survives a simulated server restart).
package vfs

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"leases/internal/clock"
)

// Errors reported by the store.
var (
	ErrNotExist = errors.New("vfs: file does not exist")
	ErrExist    = errors.New("vfs: file already exists")
	ErrNotDir   = errors.New("vfs: not a directory")
	ErrIsDir    = errors.New("vfs: is a directory")
	ErrNotEmpty = errors.New("vfs: directory not empty")
	ErrPerm     = errors.New("vfs: permission denied")
	ErrBadPath  = errors.New("vfs: invalid path")
	ErrRootOp   = errors.New("vfs: operation not permitted on root")
	ErrBadOp    = errors.New("vfs: unknown op kind")
)

// NodeID identifies a file or directory for the life of the store.
type NodeID uint64

// RootID is the NodeID of the root directory of every store.
const RootID NodeID = 1

// DatumKind distinguishes the two classes of leased data.
type DatumKind uint8

const (
	// FileData is a file's contents.
	FileData DatumKind = iota + 1
	// DirBinding is a directory's name→file bindings plus the attributes
	// (permissions, ownership) of its entries.
	DirBinding
)

// String implements fmt.Stringer.
func (k DatumKind) String() string {
	switch k {
	case FileData:
		return "file"
	case DirBinding:
		return "dir"
	default:
		return fmt.Sprintf("DatumKind(%d)", uint8(k))
	}
}

// Datum names one leasable unit of data.
type Datum struct {
	Kind DatumKind
	Node NodeID
}

// String implements fmt.Stringer.
func (d Datum) String() string { return fmt.Sprintf("%s:%d", d.Kind, d.Node) }

// Perm is a simple permission word: owner and world read/write bits.
type Perm uint8

// Permission bits.
const (
	OwnerRead Perm = 1 << iota
	OwnerWrite
	WorldRead
	WorldWrite
)

// DefaultPerm grants the owner read/write and the world read.
const DefaultPerm = OwnerRead | OwnerWrite | WorldRead

// Attr describes a node.
type Attr struct {
	ID      NodeID
	Name    string // base name within parent; "/" for the root
	IsDir   bool
	Size    int64
	Owner   string
	Perm    Perm
	ModTime time.Time
	// Version counts writes to this node's datum: file content writes
	// for files; binding changes (create, remove, rename, chmod of a
	// child) for directories.
	Version uint64
}

// DirEntry is one name→node binding inside a directory.
type DirEntry struct {
	Name  string
	ID    NodeID
	IsDir bool
}

type node struct {
	id      NodeID
	name    string
	isDir   bool
	parent  *node
	data    []byte
	entries map[string]*node // directories only
	owner   string
	perm    Perm
	modTime time.Time
	version uint64
}

// Datum is the node's leased datum: a file's contents, a directory's
// binding.
func (a Attr) Datum() Datum {
	if a.IsDir {
		return Datum{DirBinding, a.ID}
	}
	return Datum{FileData, a.ID}
}

func (n *node) attr() Attr {
	return Attr{
		ID:      n.id,
		Name:    n.name,
		IsDir:   n.isDir,
		Size:    int64(len(n.data)),
		Owner:   n.owner,
		Perm:    n.perm,
		ModTime: n.modTime,
		Version: n.version,
	}
}

// Store is an in-memory file tree. It is safe for concurrent use.
type Store struct {
	mu     sync.RWMutex
	clk    clock.Clock
	nodes  map[NodeID]*node
	nextID NodeID
}

// New returns an empty store whose root directory is owned by owner.
// Timestamps are read from clk.
func New(clk clock.Clock, owner string) *Store {
	s := &Store{clk: clk, nodes: make(map[NodeID]*node), nextID: RootID}
	root := &node{
		id:      s.alloc(),
		name:    "/",
		isDir:   true,
		entries: make(map[string]*node),
		owner:   owner,
		perm:    DefaultPerm | WorldWrite,
		modTime: clk.Now(),
	}
	s.nodes[root.id] = root
	return s
}

func (s *Store) alloc() NodeID {
	id := s.nextID
	s.nextID++
	return id
}

// splitPath validates and splits an absolute slash path into components.
func splitPath(p string) ([]string, error) {
	if p == "" || p[0] != '/' {
		return nil, fmt.Errorf("%w: %q (must be absolute)", ErrBadPath, p)
	}
	if p == "/" {
		return nil, nil
	}
	parts := strings.Split(p[1:], "/")
	for _, part := range parts {
		if part == "" || part == "." || part == ".." {
			return nil, fmt.Errorf("%w: %q", ErrBadPath, p)
		}
	}
	return parts, nil
}

// lookup walks the tree. Caller holds at least the read lock.
func (s *Store) lookup(p string) (*node, error) { return s.walk(p, nil) }

// walk resolves p, appending the edge traversed for each component to
// chain when it is non-nil. Caller holds at least the read lock.
func (s *Store) walk(p string, chain *[]Edge) (*node, error) {
	parts, err := splitPath(p)
	if err != nil {
		return nil, err
	}
	n := s.nodes[RootID]
	for _, part := range parts {
		if !n.isDir {
			return nil, fmt.Errorf("%w: %q", ErrNotDir, p)
		}
		child, ok := n.entries[part]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrNotExist, p)
		}
		if chain != nil {
			*chain = append(*chain, Edge{Dir: n.id, Child: child.id, IsDir: child.isDir, Version: n.version})
		}
		n = child
	}
	return n, nil
}

// lookupParent resolves the parent directory and base name of p.
func (s *Store) lookupParent(p string) (*node, string, error) {
	parts, err := splitPath(p)
	if err != nil {
		return nil, "", err
	}
	if len(parts) == 0 {
		return nil, "", ErrRootOp
	}
	dirParts, base := parts[:len(parts)-1], parts[len(parts)-1]
	n := s.nodes[RootID]
	for _, part := range dirParts {
		if !n.isDir {
			return nil, "", fmt.Errorf("%w: %q", ErrNotDir, p)
		}
		child, ok := n.entries[part]
		if !ok {
			return nil, "", fmt.Errorf("%w: %q", ErrNotExist, p)
		}
		n = child
	}
	if !n.isDir {
		return nil, "", fmt.Errorf("%w: %q", ErrNotDir, p)
	}
	return n, base, nil
}

func (s *Store) touchBinding(dir *node) {
	dir.version++
	dir.modTime = s.clk.Now()
}

// Lookup resolves an absolute path to the node's identity and datum.
func (s *Store) Lookup(p string) (Attr, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n, err := s.lookup(p)
	if err != nil {
		return Attr{}, err
	}
	return n.attr(), nil
}

// Edge is one step of a resolved path: the binding of directory Dir
// maps the component's name to Child. Version is Dir's binding version
// at the walk, which a lease grant taken afterwards must still match
// for the edge to be cacheable under it.
type Edge struct {
	Dir, Child NodeID
	IsDir      bool // Child is a directory
	Version    uint64
}

// Resolve walks p once, under one lock, and returns the edge traversed
// for each component (none for "/") with the attributes of the node
// the path names.
func (s *Store) Resolve(p string) ([]Edge, Attr, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	chain := make([]Edge, 0, strings.Count(p, "/"))
	n, err := s.walk(p, &chain)
	if err != nil {
		return nil, Attr{}, err
	}
	return chain, n.attr(), nil
}

// Stat reports the attributes of a node by ID.
func (s *Store) Stat(id NodeID) (Attr, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n, ok := s.nodes[id]
	if !ok {
		return Attr{}, ErrNotExist
	}
	return n.attr(), nil
}

// OpKind names a mutation of the store.
type OpKind uint8

// The mutations Apply performs.
const (
	OpWrite OpKind = iota + 1
	OpCreate
	OpMkdir
	OpRemove
	OpRename
	OpSetPerm
)

// Op is one mutation of the store. Its wire form (proto.Enc.EncodeOp) is
// path-addressed, because node IDs differ per replica; Node is never
// encoded.
type Op struct {
	Kind OpKind
	// Node, when set, is the node a write or setperm changes (a rename
	// racing the op cannot redirect it), and the node a remove must still
	// find at Path.
	Node  NodeID
	Path  string
	To    string // rename: the new path
	Owner string // create, mkdir, setperm
	Perm  Perm   // create, mkdir, setperm
	// Data is a write's contents. A create carrying Data is a move-in: the
	// name and its bytes appear together, at version 1, so no reader — and
	// no lease grant — can observe the file empty.
	Data []byte
}

// Result is what Apply changed: the node the op made, wrote, renamed,
// changed or removed; a removed file's contents; and the directories whose
// binding changed (a rename's old parent, then its new; 0 past the last).
type Result struct {
	Attr Attr
	Data []byte
	Dirs [2]NodeID
}

// Apply performs op under one store lock.
func (s *Store) Apply(op Op) (Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch op.Kind {
	case OpWrite, OpSetPerm:
		return s.change(op)
	case OpCreate, OpMkdir:
		return s.create(op)
	case OpRemove:
		return s.remove(op)
	case OpRename:
		return s.rename(op.Path, op.To)
	}
	return Result{}, fmt.Errorf("%w: %d", ErrBadOp, op.Kind)
}

// create makes a file, a directory, or a file with its bytes (a move-in).
func (s *Store) create(op Op) (Result, error) {
	dir, base, err := s.lookupParent(op.Path)
	if err != nil {
		return Result{}, err
	}
	if _, exists := dir.entries[base]; exists {
		return Result{}, fmt.Errorf("%w: %q", ErrExist, op.Path)
	}
	n := &node{id: s.alloc(), name: base, parent: dir, owner: op.Owner, perm: op.Perm, modTime: s.clk.Now()}
	switch {
	case op.Kind == OpMkdir:
		n.isDir, n.entries = true, make(map[string]*node)
	case op.Data != nil:
		n.data, n.version = append([]byte(nil), op.Data...), 1
	}
	s.nodes[n.id] = n
	dir.entries[base] = n
	s.touchBinding(dir)
	return Result{Attr: n.attr(), Dirs: [2]NodeID{dir.id}}, nil
}

// change writes a file's contents, bumping its version, or sets a node's
// owner and permissions, bumping its parent's binding version (attributes
// are part of the binding datum; the root's are in its own). The node is
// op.Node, or what op.Path names when no node is given.
func (s *Store) change(op Op) (Result, error) {
	n := s.nodes[op.Node]
	var err error
	if op.Node == 0 && op.Path != "" {
		n, err = s.lookup(op.Path)
	} else if n == nil {
		err = ErrNotExist
	}
	if err != nil {
		return Result{}, err
	}
	if op.Kind == OpSetPerm {
		n.owner, n.perm = op.Owner, op.Perm
		dir := n.parent
		if dir == nil {
			dir = n
		}
		s.touchBinding(dir)
		return Result{Attr: n.attr(), Dirs: [2]NodeID{dir.id}}, nil
	}
	if n.isDir {
		return Result{}, fmt.Errorf("%w: %q", ErrIsDir, n.name)
	}
	n.data = make([]byte, len(op.Data))
	copy(n.data, op.Data)
	n.version++
	n.modTime = s.clk.Now()
	return Result{Attr: n.attr()}, nil
}

// remove deletes a file or an empty directory and hands back a file's
// contents; one that names its Node refuses a name now bound to another.
func (s *Store) remove(op Op) (Result, error) {
	dir, base, err := s.lookupParent(op.Path)
	if err != nil {
		return Result{}, err
	}
	n, ok := dir.entries[base]
	if !ok || op.Node != 0 && n.id != op.Node {
		return Result{}, fmt.Errorf("%w: %q", ErrNotExist, op.Path)
	}
	if n.isDir && len(n.entries) > 0 {
		return Result{}, fmt.Errorf("%w: %q", ErrNotEmpty, op.Path)
	}
	delete(dir.entries, base)
	delete(s.nodes, n.id)
	s.touchBinding(dir)
	r := Result{Attr: n.attr(), Data: n.data, Dirs: [2]NodeID{dir.id}}
	if r.Data == nil && !n.isDir {
		r.Data = []byte{} // a file's contents, empty: a move of it is still a move-in
	}
	return r, nil
}

// rename moves the node at oldPath to newPath, which must not exist.
func (s *Store) rename(oldPath, newPath string) (Result, error) {
	oldDir, oldBase, err := s.lookupParent(oldPath)
	if err != nil {
		return Result{}, err
	}
	n, ok := oldDir.entries[oldBase]
	if !ok {
		return Result{}, fmt.Errorf("%w: %q", ErrNotExist, oldPath)
	}
	newDir, newBase, err := s.lookupParent(newPath)
	if err != nil {
		return Result{}, err
	}
	if _, exists := newDir.entries[newBase]; exists {
		return Result{}, fmt.Errorf("%w: %q", ErrExist, newPath)
	}
	// Refuse to move a directory into its own subtree.
	for a := newDir; a != nil; a = a.parent {
		if a == n {
			return Result{}, fmt.Errorf("%w: %q into %q", ErrBadPath, oldPath, newPath)
		}
	}
	delete(oldDir.entries, oldBase)
	n.name = newBase
	n.parent = newDir
	newDir.entries[newBase] = n
	s.touchBinding(oldDir)
	if newDir != oldDir {
		s.touchBinding(newDir)
	}
	return Result{Attr: n.attr(), Dirs: [2]NodeID{oldDir.id, newDir.id}}, nil
}

// Create makes an empty file at path p owned by owner. It fails if the
// name exists.
func (s *Store) Create(p, owner string, perm Perm) (Attr, error) {
	r, err := s.Apply(Op{Kind: OpCreate, Path: p, Owner: owner, Perm: perm})
	return r.Attr, err
}

// CreateWith makes a file at path p with its initial contents: a move-in
// (see Op.Data).
func (s *Store) CreateWith(p, owner string, perm Perm, data []byte) (Attr, error) {
	if data == nil {
		data = []byte{}
	}
	r, err := s.Apply(Op{Kind: OpCreate, Path: p, Owner: owner, Perm: perm, Data: data})
	return r.Attr, err
}

// Mkdir makes a directory at path p owned by owner.
func (s *Store) Mkdir(p, owner string, perm Perm) (Attr, error) {
	r, err := s.Apply(Op{Kind: OpMkdir, Path: p, Owner: owner, Perm: perm})
	return r.Attr, err
}

// Remove deletes the file or empty directory at path p. It returns the
// data affected: the removed node's datum and its parent's binding datum.
func (s *Store) Remove(p string) ([]Datum, error) {
	r, err := s.Apply(Op{Kind: OpRemove, Path: p})
	if err != nil {
		return nil, err
	}
	return []Datum{r.Attr.Datum(), {DirBinding, r.Dirs[0]}}, nil
}

// Rename moves the node at oldPath to newPath (which must not exist).
// It returns the binding data affected (old parent, new parent).
func (s *Store) Rename(oldPath, newPath string) ([]Datum, error) {
	r, err := s.Apply(Op{Kind: OpRename, Path: oldPath, To: newPath})
	if err != nil {
		return nil, err
	}
	data := []Datum{{DirBinding, r.Dirs[0]}}
	if r.Dirs[1] != r.Dirs[0] {
		data = append(data, Datum{DirBinding, r.Dirs[1]})
	}
	return data, nil
}

// ReadFile returns a copy of the file's contents and its attributes.
func (s *Store) ReadFile(id NodeID) ([]byte, Attr, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n, ok := s.nodes[id]
	if !ok {
		return nil, Attr{}, ErrNotExist
	}
	if n.isDir {
		return nil, Attr{}, fmt.Errorf("%w: %q", ErrIsDir, n.name)
	}
	data := make([]byte, len(n.data))
	copy(data, n.data)
	return data, n.attr(), nil
}

// WriteFile replaces the file's contents, bumping its version. It
// returns the new attributes and the datum written.
func (s *Store) WriteFile(id NodeID, data []byte) (Attr, Datum, error) {
	r, err := s.Apply(Op{Kind: OpWrite, Node: id, Data: data})
	if err != nil {
		return Attr{}, Datum{}, err
	}
	return r.Attr, Datum{FileData, id}, nil
}

// SetPerm changes a node's permissions and owner, bumping the parent's
// binding version (attributes are part of the binding datum). It returns
// the binding datum affected, or the node's own datum for the root.
func (s *Store) SetPerm(id NodeID, owner string, perm Perm) (Datum, error) {
	r, err := s.Apply(Op{Kind: OpSetPerm, Node: id, Owner: owner, Perm: perm})
	if err != nil {
		return Datum{}, err
	}
	return Datum{DirBinding, r.Dirs[0]}, nil
}

// ReadDir lists a directory's entries in name order.
func (s *Store) ReadDir(id NodeID) ([]DirEntry, Attr, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n, ok := s.nodes[id]
	if !ok {
		return nil, Attr{}, ErrNotExist
	}
	if !n.isDir {
		return nil, Attr{}, fmt.Errorf("%w: %q", ErrNotDir, n.name)
	}
	entries := make([]DirEntry, 0, len(n.entries))
	for name, child := range n.entries {
		entries = append(entries, DirEntry{Name: name, ID: child.id, IsDir: child.isDir})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name < entries[j].Name })
	return entries, n.attr(), nil
}

// Version reports the current version of a datum. For a FileData datum
// that names a directory (or vice versa) it returns ErrNotExist, since no
// such datum exists.
func (s *Store) Version(d Datum) (uint64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n, ok := s.nodes[d.Node]
	if !ok {
		return 0, ErrNotExist
	}
	switch d.Kind {
	case FileData:
		if n.isDir {
			return 0, ErrNotExist
		}
	case DirBinding:
		if !n.isDir {
			return 0, ErrNotExist
		}
	default:
		return 0, ErrNotExist
	}
	return n.version, nil
}

// Path reconstructs the absolute path of a node.
func (s *Store) Path(id NodeID) (string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n, ok := s.nodes[id]
	if !ok {
		return "", ErrNotExist
	}
	return s.pathLocked(n)
}

// CheckAccess reports whether principal may perform the operation on the
// node: write=false checks read permission.
func (s *Store) CheckAccess(id NodeID, principal string, write bool) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n, ok := s.nodes[id]
	if !ok {
		return ErrNotExist
	}
	var need Perm
	if principal == n.owner {
		need = OwnerRead
		if write {
			need = OwnerWrite
		}
	} else {
		need = WorldRead
		if write {
			need = WorldWrite
		}
	}
	if n.perm&need == 0 {
		return fmt.Errorf("%w: %s on %q by %q", ErrPerm, map[bool]string{false: "read", true: "write"}[write], n.name, principal)
	}
	return nil
}

// NodeCount reports how many nodes (files and directories) exist.
func (s *Store) NodeCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.nodes)
}

func (s *Store) pathLocked(n *node) (string, error) {
	if n.parent == nil {
		return "/", nil
	}
	var parts []string
	for m := n; m.parent != nil; m = m.parent {
		parts = append(parts, m.name)
	}
	var b strings.Builder
	for i := len(parts) - 1; i >= 0; i-- {
		b.WriteByte('/')
		b.WriteString(parts[i])
	}
	return b.String(), nil
}
