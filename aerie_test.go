package aerie_test

import (
	"io"
	"testing"

	aerie "github.com/aerie-fs/aerie"
)

func TestPublicAPIQuickstart(t *testing.T) {
	sys, err := aerie.New(aerie.Options{ArenaSize: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	fs, err := sys.NewPXFS(1000, aerie.PXFSOptions{NameCache: true})
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("/hello.txt", 0644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello from the public API")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	g, err := fs.Open("/hello.txt", aerie.O_RDONLY)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 25)
	if _, err := io.ReadFull(g, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "hello from the public API" {
		t.Fatalf("got %q", buf)
	}
	_ = g.Close()
}

func TestSharedSessionBothInterfaces(t *testing.T) {
	sys, err := aerie.New(aerie.Options{ArenaSize: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	sess, err := sys.NewSession(aerie.SessionConfig{UID: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	flat := aerie.FlatFSOn(sess, aerie.FlatFSOptions{})
	px := aerie.PXFSOn(sess, aerie.PXFSOptions{})
	if err := flat.Put("note", []byte("one layout, two interfaces")); err != nil {
		t.Fatal(err)
	}
	if err := flat.Sync(); err != nil {
		t.Fatal(err)
	}
	fi, err := px.Stat("/note")
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size != 26 {
		t.Fatalf("size = %d", fi.Size)
	}
}

func TestCrashRecoveryThroughPublicAPI(t *testing.T) {
	sys, err := aerie.New(aerie.Options{ArenaSize: 64 << 20, TrackPersistence: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	fs, err := sys.NewFlatFS(1000, aerie.FlatFSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Put("durable", []byte("survives power loss")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := sys.CrashAndRecover(); err != nil {
		t.Fatal(err)
	}
	fs2, err := sys.NewFlatFS(1001, aerie.FlatFSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := fs2.Get("durable")
	if err != nil || string(got) != "survives power loss" {
		t.Fatalf("after crash: %q %v", got, err)
	}
}
