// Fixture: the pin target of clean/jobs.rs — acquiring the store while
// only the journal is held is one of the two sanctioned edges — and a
// commit that takes the shared journal before its own mutex.

impl DatasetStore {
    fn pin(&self, id: u64) {
        let mut s = self.inner.lock().unwrap();
        s.pins += 1;
    }

    fn commit(&self, id: u64) {
        let j = self.journal.lock().unwrap();
        j.record(id);
        let mut s = self.inner.lock().unwrap();
        s.install(id);
    }
}
