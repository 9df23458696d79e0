// Package lockdeep is a lockio fixture for I/O below the call that holds
// the lock: a helper's I/O counts where the lock is held, helper I/O after
// the unlock and I/O on a goroutine spawned under the lock do not, and a
// call through a function value stays opaque.
package lockdeep

import (
	"os"
	"sync"
)

type server struct {
	mu    sync.Mutex
	state map[string][]byte
}

// load does the I/O; it takes no lock itself.
func (s *server) load(path string) ([]byte, error) {
	return os.ReadFile(path)
}

func (s *server) helperUnderLock(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, err := s.load(path) // want `lockdeep\.\(\*server\)\.load does I/O while s\.mu is held`
	s.state[path] = b
	return err
}

func (s *server) helperAfterUnlock(path string) error {
	s.mu.Lock()
	_, cached := s.state[path]
	s.mu.Unlock()
	if cached {
		return nil
	}
	b, err := s.load(path)
	s.mu.Lock()
	s.state[path] = b
	s.mu.Unlock()
	return err
}

func (s *server) spawnedUnderLock(path string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.state[path] = nil
	go func() {
		b, _ := os.ReadFile(path)
		s.mu.Lock()
		s.state[path] = b
		s.mu.Unlock()
	}()
}

func (s *server) throughFuncValue(path string) error {
	load := s.load
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := load(path)
	return err
}
