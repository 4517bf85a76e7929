// Fixture: `reserve` re-enters its own mutex (self-deadlock with
// std::sync::Mutex), `reclaim` reaches the queue lock through a call
// while the store lock is held, and `commit` takes the shared journal
// while holding the store lock — two edges the hierarchy forbids.

impl DatasetStore {
    fn reserve(&self) {
        let a = self.inner.lock().unwrap();
        let b = self.inner.lock().unwrap();
        a.merge(b);
    }

    fn reclaim(&self) {
        let s = self.inner.lock().unwrap();
        self.queue_len();
        s.touch();
    }

    fn commit(&self) {
        let s = self.inner.lock().unwrap();
        let j = self.journal.lock().unwrap();
        j.record(&s.head);
    }
}
