package vfs

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"leases/internal/clock"
)

func newStore() (*Store, *clock.Sim) {
	clk := clock.NewSim()
	return New(clk, "root"), clk
}

func TestRootExists(t *testing.T) {
	s, _ := newStore()
	a, err := s.Lookup("/")
	if err != nil {
		t.Fatalf("Lookup(/): %v", err)
	}
	if a.ID != RootID || !a.IsDir || a.Name != "/" {
		t.Fatalf("root attr = %+v", a)
	}
}

func TestCreateLookupReadWrite(t *testing.T) {
	s, clk := newStore()
	a, err := s.Create("/hello.txt", "alice", DefaultPerm)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if a.IsDir || a.Name != "hello.txt" || a.Owner != "alice" {
		t.Fatalf("created attr = %+v", a)
	}
	if a.Version != 0 {
		t.Fatalf("new file version = %d, want 0", a.Version)
	}
	clk.Advance(time.Second)
	a2, d, err := s.WriteFile(a.ID, []byte("contents"))
	if err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if a2.Version != 1 || a2.Size != 8 {
		t.Fatalf("post-write attr = %+v", a2)
	}
	if d != (Datum{FileData, a.ID}) {
		t.Fatalf("write datum = %v", d)
	}
	if !a2.ModTime.Equal(clock.Epoch.Add(time.Second)) {
		t.Fatalf("ModTime = %v", a2.ModTime)
	}
	data, a3, err := s.ReadFile(a.ID)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if string(data) != "contents" || a3.Version != 1 {
		t.Fatalf("read %q v%d", data, a3.Version)
	}
}

func TestReadFileReturnsACopy(t *testing.T) {
	s, _ := newStore()
	a, _ := s.Create("/f", "u", DefaultPerm)
	s.WriteFile(a.ID, []byte("abc"))
	data, _, _ := s.ReadFile(a.ID)
	data[0] = 'X'
	data2, _, _ := s.ReadFile(a.ID)
	if string(data2) != "abc" {
		t.Fatal("mutating a read buffer changed stored contents")
	}
}

func TestWriteFileCopiesInput(t *testing.T) {
	s, _ := newStore()
	a, _ := s.Create("/f", "u", DefaultPerm)
	buf := []byte("abc")
	s.WriteFile(a.ID, buf)
	buf[0] = 'X'
	data, _, _ := s.ReadFile(a.ID)
	if string(data) != "abc" {
		t.Fatal("mutating the caller's buffer changed stored contents")
	}
}

func TestCreateBumpsParentBindingVersion(t *testing.T) {
	s, _ := newStore()
	before, _ := s.Stat(RootID)
	s.Create("/a", "u", DefaultPerm)
	after, _ := s.Stat(RootID)
	if after.Version != before.Version+1 {
		t.Fatalf("root binding version %d → %d, want +1", before.Version, after.Version)
	}
}

func TestMkdirAndNesting(t *testing.T) {
	s, _ := newStore()
	if _, err := s.Mkdir("/usr", "root", DefaultPerm); err != nil {
		t.Fatalf("Mkdir /usr: %v", err)
	}
	if _, err := s.Mkdir("/usr/bin", "root", DefaultPerm); err != nil {
		t.Fatalf("Mkdir /usr/bin: %v", err)
	}
	a, err := s.Create("/usr/bin/latex", "root", DefaultPerm)
	if err != nil {
		t.Fatalf("Create nested: %v", err)
	}
	got, err := s.Lookup("/usr/bin/latex")
	if err != nil || got.ID != a.ID {
		t.Fatalf("Lookup nested: %v %+v", err, got)
	}
	p, err := s.Path(a.ID)
	if err != nil || p != "/usr/bin/latex" {
		t.Fatalf("Path = %q, %v", p, err)
	}
}

func TestLookupErrors(t *testing.T) {
	s, _ := newStore()
	s.Create("/f", "u", DefaultPerm)
	cases := []struct {
		path string
		want error
	}{
		{"/missing", ErrNotExist},
		{"/f/child", ErrNotDir},
		{"relative", ErrBadPath},
		{"", ErrBadPath},
		{"//double", ErrBadPath},
		{"/a/../b", ErrBadPath},
		{"/./x", ErrBadPath},
	}
	for _, c := range cases {
		if _, err := s.Lookup(c.path); !errors.Is(err, c.want) {
			t.Errorf("Lookup(%q) = %v, want %v", c.path, err, c.want)
		}
	}
}

func TestCreateExistingFails(t *testing.T) {
	s, _ := newStore()
	s.Create("/f", "u", DefaultPerm)
	if _, err := s.Create("/f", "u", DefaultPerm); !errors.Is(err, ErrExist) {
		t.Fatalf("duplicate Create = %v, want ErrExist", err)
	}
	if _, err := s.Mkdir("/f", "u", DefaultPerm); !errors.Is(err, ErrExist) {
		t.Fatalf("Mkdir over file = %v, want ErrExist", err)
	}
}

func TestCreateInMissingDirFails(t *testing.T) {
	s, _ := newStore()
	if _, err := s.Create("/no/such/f", "u", DefaultPerm); !errors.Is(err, ErrNotExist) {
		t.Fatalf("got %v, want ErrNotExist", err)
	}
}

func TestCreateAtRootPathFails(t *testing.T) {
	s, _ := newStore()
	if _, err := s.Create("/", "u", DefaultPerm); !errors.Is(err, ErrRootOp) {
		t.Fatalf("Create(/) = %v, want ErrRootOp", err)
	}
}

func TestRemoveFile(t *testing.T) {
	s, _ := newStore()
	a, _ := s.Create("/f", "u", DefaultPerm)
	rootBefore, _ := s.Stat(RootID)
	data, err := s.Remove("/f")
	if err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if len(data) != 2 || data[0] != (Datum{FileData, a.ID}) || data[1] != (Datum{DirBinding, RootID}) {
		t.Fatalf("Remove data = %v", data)
	}
	if _, err := s.Lookup("/f"); !errors.Is(err, ErrNotExist) {
		t.Fatal("file still resolvable after Remove")
	}
	if _, err := s.Stat(a.ID); !errors.Is(err, ErrNotExist) {
		t.Fatal("node still stat-able after Remove")
	}
	rootAfter, _ := s.Stat(RootID)
	if rootAfter.Version != rootBefore.Version+1 {
		t.Fatal("Remove did not bump parent binding version")
	}
}

func TestRemoveNonEmptyDirFails(t *testing.T) {
	s, _ := newStore()
	s.Mkdir("/d", "u", DefaultPerm)
	s.Create("/d/f", "u", DefaultPerm)
	if _, err := s.Remove("/d"); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("Remove non-empty dir = %v, want ErrNotEmpty", err)
	}
	s.Remove("/d/f")
	if _, err := s.Remove("/d"); err != nil {
		t.Fatalf("Remove empty dir: %v", err)
	}
}

func TestRename(t *testing.T) {
	s, _ := newStore()
	s.Mkdir("/a", "u", DefaultPerm)
	s.Mkdir("/b", "u", DefaultPerm)
	f, _ := s.Create("/a/f", "u", DefaultPerm)
	aAttr, _ := s.Lookup("/a")
	bAttr, _ := s.Lookup("/b")
	aV, bV := aAttr.Version, bAttr.Version
	data, err := s.Rename("/a/f", "/b/g")
	if err != nil {
		t.Fatalf("Rename: %v", err)
	}
	if len(data) != 2 {
		t.Fatalf("Rename data = %v, want both parents", data)
	}
	if _, err := s.Lookup("/a/f"); !errors.Is(err, ErrNotExist) {
		t.Fatal("old name still resolves")
	}
	got, err := s.Lookup("/b/g")
	if err != nil || got.ID != f.ID {
		t.Fatalf("new name: %v %+v", err, got)
	}
	aAttr, _ = s.Lookup("/a")
	bAttr, _ = s.Lookup("/b")
	if aAttr.Version != aV+1 || bAttr.Version != bV+1 {
		t.Fatal("Rename did not bump both parents' binding versions")
	}
	p, _ := s.Path(f.ID)
	if p != "/b/g" {
		t.Fatalf("Path after rename = %q", p)
	}
}

func TestRenameWithinSameDirBumpsOnce(t *testing.T) {
	s, _ := newStore()
	s.Create("/f", "u", DefaultPerm)
	before, _ := s.Stat(RootID)
	data, err := s.Rename("/f", "/g")
	if err != nil {
		t.Fatalf("Rename: %v", err)
	}
	if len(data) != 1 {
		t.Fatalf("same-dir rename data = %v, want one datum", data)
	}
	after, _ := s.Stat(RootID)
	if after.Version != before.Version+1 {
		t.Fatalf("version bumped %d times, want 1", after.Version-before.Version)
	}
}

func TestRenameOntoExistingFails(t *testing.T) {
	s, _ := newStore()
	s.Create("/f", "u", DefaultPerm)
	s.Create("/g", "u", DefaultPerm)
	if _, err := s.Rename("/f", "/g"); !errors.Is(err, ErrExist) {
		t.Fatalf("Rename onto existing = %v, want ErrExist", err)
	}
}

func TestRenameDirIntoOwnSubtreeFails(t *testing.T) {
	s, _ := newStore()
	s.Mkdir("/d", "u", DefaultPerm)
	s.Mkdir("/d/sub", "u", DefaultPerm)
	if _, err := s.Rename("/d", "/d/sub/d2"); !errors.Is(err, ErrBadPath) {
		t.Fatalf("cycle rename = %v, want ErrBadPath", err)
	}
}

func TestReadDirSorted(t *testing.T) {
	s, _ := newStore()
	s.Create("/zebra", "u", DefaultPerm)
	s.Mkdir("/apple", "u", DefaultPerm)
	s.Create("/mango", "u", DefaultPerm)
	entries, attr, err := s.ReadDir(RootID)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	if attr.ID != RootID {
		t.Fatalf("ReadDir attr = %+v", attr)
	}
	want := []string{"apple", "mango", "zebra"}
	if len(entries) != 3 {
		t.Fatalf("entries = %v", entries)
	}
	for i, w := range want {
		if entries[i].Name != w {
			t.Fatalf("entries = %v, want sorted %v", entries, want)
		}
	}
	if !entries[0].IsDir || entries[1].IsDir {
		t.Fatal("IsDir flags wrong")
	}
}

func TestReadDirOnFileFails(t *testing.T) {
	s, _ := newStore()
	a, _ := s.Create("/f", "u", DefaultPerm)
	if _, _, err := s.ReadDir(a.ID); !errors.Is(err, ErrNotDir) {
		t.Fatalf("ReadDir(file) = %v, want ErrNotDir", err)
	}
	if _, _, err := s.ReadFile(RootID); !errors.Is(err, ErrIsDir) {
		t.Fatalf("ReadFile(dir) = %v, want ErrIsDir", err)
	}
	if _, _, err := s.WriteFile(RootID, nil); !errors.Is(err, ErrIsDir) {
		t.Fatalf("WriteFile(dir) = %v, want ErrIsDir", err)
	}
}

func TestVersionDatumKinds(t *testing.T) {
	s, _ := newStore()
	a, _ := s.Create("/f", "u", DefaultPerm)
	if v, err := s.Version(Datum{FileData, a.ID}); err != nil || v != 0 {
		t.Fatalf("file version = %d, %v", v, err)
	}
	if _, err := s.Version(Datum{DirBinding, a.ID}); !errors.Is(err, ErrNotExist) {
		t.Fatalf("DirBinding datum on a file = %v, want ErrNotExist", err)
	}
	if _, err := s.Version(Datum{FileData, RootID}); !errors.Is(err, ErrNotExist) {
		t.Fatalf("FileData datum on a dir = %v, want ErrNotExist", err)
	}
	if v, err := s.Version(Datum{DirBinding, RootID}); err != nil || v == 0 {
		t.Fatalf("root binding version = %d, %v (want >0 after create)", v, err)
	}
	if _, err := s.Version(Datum{FileData, 9999}); !errors.Is(err, ErrNotExist) {
		t.Fatalf("missing node = %v", err)
	}
}

func TestSetPermBumpsParentBinding(t *testing.T) {
	s, _ := newStore()
	a, _ := s.Create("/f", "u", DefaultPerm)
	before, _ := s.Stat(RootID)
	d, err := s.SetPerm(a.ID, "v", OwnerRead)
	if err != nil {
		t.Fatalf("SetPerm: %v", err)
	}
	if d != (Datum{DirBinding, RootID}) {
		t.Fatalf("SetPerm datum = %v", d)
	}
	after, _ := s.Stat(RootID)
	if after.Version != before.Version+1 {
		t.Fatal("SetPerm did not bump parent binding version")
	}
	na, _ := s.Stat(a.ID)
	if na.Owner != "v" || na.Perm != OwnerRead {
		t.Fatalf("attrs not updated: %+v", na)
	}
}

func TestSetPermOnRoot(t *testing.T) {
	s, _ := newStore()
	d, err := s.SetPerm(RootID, "admin", DefaultPerm)
	if err != nil {
		t.Fatalf("SetPerm(root): %v", err)
	}
	if d != (Datum{DirBinding, RootID}) {
		t.Fatalf("datum = %v", d)
	}
}

func TestCheckAccess(t *testing.T) {
	s, _ := newStore()
	a, _ := s.Create("/f", "alice", OwnerRead|OwnerWrite|WorldRead)
	if err := s.CheckAccess(a.ID, "alice", true); err != nil {
		t.Fatalf("owner write: %v", err)
	}
	if err := s.CheckAccess(a.ID, "bob", false); err != nil {
		t.Fatalf("world read: %v", err)
	}
	if err := s.CheckAccess(a.ID, "bob", true); !errors.Is(err, ErrPerm) {
		t.Fatalf("world write = %v, want ErrPerm", err)
	}
	b, _ := s.Create("/g", "alice", OwnerWrite)
	if err := s.CheckAccess(b.ID, "alice", false); !errors.Is(err, ErrPerm) {
		t.Fatalf("owner read without bit = %v, want ErrPerm", err)
	}
	if err := s.CheckAccess(9999, "x", false); !errors.Is(err, ErrNotExist) {
		t.Fatalf("missing node = %v", err)
	}
}

func TestNodeCount(t *testing.T) {
	s, _ := newStore()
	if s.NodeCount() != 1 {
		t.Fatalf("fresh store NodeCount = %d, want 1 (root)", s.NodeCount())
	}
	s.Create("/a", "u", DefaultPerm)
	s.Mkdir("/d", "u", DefaultPerm)
	if s.NodeCount() != 3 {
		t.Fatalf("NodeCount = %d, want 3", s.NodeCount())
	}
	s.Remove("/a")
	if s.NodeCount() != 2 {
		t.Fatalf("NodeCount after remove = %d, want 2", s.NodeCount())
	}
}

func TestDatumString(t *testing.T) {
	d := Datum{FileData, 7}
	if d.String() != "file:7" {
		t.Fatalf("Datum.String = %q", d.String())
	}
	d2 := Datum{DirBinding, 1}
	if d2.String() != "dir:1" {
		t.Fatalf("Datum.String = %q", d2.String())
	}
	if DatumKind(99).String() == "" {
		t.Fatal("unknown kind String empty")
	}
}

// The store is shared by every connection goroutine of the networked
// server: hammer it concurrently under -race.
func TestConcurrentStoreAccess(t *testing.T) {
	s, _ := newStore()
	for i := 0; i < 8; i++ {
		s.Create(fmt.Sprintf("/f%d", i), "u", DefaultPerm|WorldWrite)
	}
	done := make(chan error, 16)
	for g := 0; g < 16; g++ {
		go func(g int) {
			var err error
			defer func() { done <- err }()
			for i := 0; i < 200; i++ {
				id := NodeID(i%8 + 2)
				switch i % 5 {
				case 0:
					_, _, err = s.WriteFile(id, []byte{byte(g), byte(i)})
				case 1:
					_, _, err = s.ReadFile(id)
				case 2:
					_, err = s.Stat(id)
				case 3:
					_, _, err = s.ReadDir(RootID)
				case 4:
					_, err = s.Version(Datum{FileData, id})
				}
				if err != nil {
					return
				}
			}
		}(g)
	}
	for g := 0; g < 16; g++ {
		if err := <-done; err != nil {
			t.Fatalf("concurrent op: %v", err)
		}
	}
}

// Property: file content writes bump exactly the file's version by one
// per write, and the content read back is the content written.
func TestWriteVersionProperty(t *testing.T) {
	f := func(writes [][]byte) bool {
		s, _ := newStore()
		a, _ := s.Create("/f", "u", DefaultPerm)
		for i, w := range writes {
			attr, _, err := s.WriteFile(a.ID, w)
			if err != nil || attr.Version != uint64(i+1) {
				return false
			}
			data, _, err := s.ReadFile(a.ID)
			if err != nil || string(data) != string(w) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: after any sequence of creates in the root, ReadDir lists
// exactly the created names, sorted.
func TestReadDirContentsProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		s, _ := newStore()
		want := map[string]bool{}
		for _, r := range raw {
			name := fmt.Sprintf("f%d", r)
			if want[name] {
				continue
			}
			if _, err := s.Create("/"+name, "u", DefaultPerm); err != nil {
				return false
			}
			want[name] = true
		}
		entries, _, err := s.ReadDir(RootID)
		if err != nil || len(entries) != len(want) {
			return false
		}
		for i, e := range entries {
			if !want[e.Name] {
				return false
			}
			if i > 0 && entries[i-1].Name >= e.Name {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestApplyMatchesTheMethods is the reference for Apply: each kind leaves
// the attributes, file version and binding versions of the exported method
// it stands for, and those pinned here — a create at version 0, a move-in
// at 1, a write one above, one binding bump per directory changed.
func TestApplyMatchesTheMethods(t *testing.T) {
	// fixture: /d (binding 1) holding /d/f (node 3, "x" at version 1);
	// the root's binding is at 1.
	fixture := func() *Store {
		s, _ := newStore()
		s.Mkdir("/d", "root", DefaultPerm)
		f, _ := s.Create("/d/f", "alice", DefaultPerm)
		s.WriteFile(f.ID, []byte("x"))
		return s
	}
	for _, tc := range []struct {
		name   string
		method func(*Store) error
		op     Op
		at     string // where the node the op touched is found after it ("": gone)
		ver    uint64 // its version there
		root   uint64 // the root's binding version after
		d      uint64 // /d's binding version after
	}{
		{"create", func(s *Store) error { _, err := s.Create("/d/g", "bob", WorldRead); return err },
			Op{Kind: OpCreate, Path: "/d/g", Owner: "bob", Perm: WorldRead}, "/d/g", 0, 1, 2},
		{"move-in", func(s *Store) error { _, err := s.CreateWith("/d/g", "bob", WorldRead, []byte("abc")); return err },
			Op{Kind: OpCreate, Path: "/d/g", Owner: "bob", Perm: WorldRead, Data: []byte("abc")}, "/d/g", 1, 1, 2},
		{"empty move-in", func(s *Store) error { _, err := s.CreateWith("/d/g", "bob", WorldRead, nil); return err },
			Op{Kind: OpCreate, Path: "/d/g", Owner: "bob", Perm: WorldRead, Data: []byte{}}, "/d/g", 1, 1, 2},
		{"mkdir", func(s *Store) error { _, err := s.Mkdir("/e", "bob", DefaultPerm); return err },
			Op{Kind: OpMkdir, Path: "/e", Owner: "bob", Perm: DefaultPerm}, "/e", 0, 2, 1},
		{"write", func(s *Store) error { _, _, err := s.WriteFile(3, []byte("yz")); return err },
			Op{Kind: OpWrite, Node: 3, Data: []byte("yz")}, "/d/f", 2, 1, 1},
		{"write by path", func(s *Store) error { _, _, err := s.WriteFile(3, []byte("yz")); return err },
			Op{Kind: OpWrite, Path: "/d/f", Data: []byte("yz")}, "/d/f", 2, 1, 1},
		{"remove", func(s *Store) error { _, err := s.Remove("/d/f"); return err },
			Op{Kind: OpRemove, Path: "/d/f"}, "", 0, 1, 2},
		{"rename", func(s *Store) error { _, err := s.Rename("/d/f", "/f"); return err },
			Op{Kind: OpRename, Path: "/d/f", To: "/f"}, "/f", 1, 2, 2},
		{"setperm", func(s *Store) error { _, err := s.SetPerm(3, "bob", WorldRead); return err },
			Op{Kind: OpSetPerm, Node: 3, Owner: "bob", Perm: WorldRead}, "/d/f", 1, 1, 2},
		{"setperm root", func(s *Store) error { _, err := s.SetPerm(RootID, "bob", DefaultPerm); return err },
			Op{Kind: OpSetPerm, Node: RootID, Owner: "bob", Perm: DefaultPerm}, "/", 2, 2, 1},
	} {
		viaMethod, viaApply := fixture(), fixture()
		if err := tc.method(viaMethod); err != nil {
			t.Fatalf("%s: method: %v", tc.name, err)
		}
		if _, err := viaApply.Apply(tc.op); err != nil {
			t.Fatalf("%s: Apply: %v", tc.name, err)
		}
		if got, want := walkAll(t, viaApply), walkAll(t, viaMethod); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: Apply left\n  %v\nthe method\n  %v", tc.name, got, want)
		}
		got := walkAll(t, viaApply)
		if a, ok := got[tc.at]; tc.at != "" && (!ok || a.Version != tc.ver) {
			t.Errorf("%s: %s at version %d (present %v), want %d", tc.name, tc.at, a.Version, ok, tc.ver)
		}
		if got["/"].Version != tc.root || got["/d"].Version != tc.d {
			t.Errorf("%s: bindings / at %d and /d at %d, want %d and %d", tc.name, got["/"].Version, got["/d"].Version, tc.root, tc.d)
		}
	}
}

// walkAll maps every path of s to its attributes.
func walkAll(t *testing.T, s *Store) map[string]Attr {
	t.Helper()
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := map[string]Attr{}
	for _, n := range s.nodes {
		p, err := s.pathLocked(n)
		if err != nil {
			t.Fatal(err)
		}
		out[p] = n.attr()
	}
	return out
}

// TestApplyRefusals: a remove naming a node its path no longer binds
// changes nothing, nor does an op of an unknown kind; a removed file's
// contents come back, empty ones too.
func TestApplyRefusals(t *testing.T) {
	s, _ := newStore()
	f, _ := s.CreateWith("/f", "u", DefaultPerm, []byte("abc"))
	g, _ := s.Create("/g", "u", DefaultPerm)
	if _, err := s.Apply(Op{Kind: OpRemove, Node: g.ID, Path: "/f"}); !errors.Is(err, ErrNotExist) {
		t.Fatalf("remove of /f naming /g's node = %v, want ErrNotExist", err)
	}
	if _, err := s.Apply(Op{Kind: OpSetPerm + 1, Path: "/f"}); !errors.Is(err, ErrBadOp) {
		t.Fatalf("unknown kind = %v, want ErrBadOp", err)
	}
	if a, err := s.Lookup("/f"); err != nil || a.ID != f.ID || a.Version != 1 {
		t.Fatalf("/f after the refusals: %+v, %v", a, err)
	}
	for _, tc := range []struct {
		path string
		node NodeID
		want string
	}{{"/f", f.ID, "abc"}, {"/g", g.ID, ""}} {
		r, err := s.Apply(Op{Kind: OpRemove, Node: tc.node, Path: tc.path})
		if err != nil || r.Data == nil || string(r.Data) != tc.want || r.Attr.ID != tc.node {
			t.Fatalf("remove %s = %+v, %v; want its contents %q", tc.path, r, err, tc.want)
		}
	}
}

func TestResolveYieldsChainAndVersions(t *testing.T) {
	s, _ := newStore()
	a, _ := s.Mkdir("/a", "root", DefaultPerm)
	b, _ := s.Mkdir("/a/b", "root", DefaultPerm)
	f, _ := s.Create("/a/b/f", "root", DefaultPerm)
	s.Create("/a/g", "root", DefaultPerm) // bumps /a's binding a second time

	chain, attr, err := s.Resolve("/a/b/f")
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	want := []Edge{
		{Dir: RootID, Child: a.ID, IsDir: true, Version: 1},
		{Dir: a.ID, Child: b.ID, IsDir: true, Version: 2},
		{Dir: b.ID, Child: f.ID, Version: 1},
	}
	if len(chain) != len(want) {
		t.Fatalf("chain = %+v, want %+v", chain, want)
	}
	for i := range want {
		if chain[i] != want[i] {
			t.Fatalf("edge %d = %+v, want %+v", i, chain[i], want[i])
		}
	}
	if attr.ID != f.ID || attr.IsDir {
		t.Fatalf("leaf attr = %+v", attr)
	}
	if chain, attr, err := s.Resolve("/"); err != nil || len(chain) != 0 || attr.ID != RootID {
		t.Fatalf("Resolve(/) = %+v, %+v, %v", chain, attr, err)
	}
	for path, want := range map[string]error{
		"/a/x": ErrNotExist, "/a/b/f/x": ErrNotDir, "a/b": ErrBadPath, "/a//b": ErrBadPath,
	} {
		if _, _, err := s.Resolve(path); !errors.Is(err, want) {
			t.Errorf("Resolve(%q) = %v, want %v", path, err, want)
		}
	}
}
