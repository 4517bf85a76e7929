// Fixture: `submit` takes the queue lock first and the journal inside
// it — the inverse of the documented hierarchy — while `finish` uses
// the sanctioned order, closing a queue ↔ journal cycle. `queue_len`
// is the target of the call-deep edge seeded in bad/store.rs. `drain`
// takes the store (through `commit`) under the queue guard its `if let`
// scrutinee holds.

impl JobQueue {
    fn submit(&self) {
        let (lock, cvar) = &*self.inner;
        let mut q = lock.lock().unwrap();
        let mut j = self.journal.lock().unwrap();
        j.record(&q.head);
    }

    fn finish(&self) {
        let mut j = self.journal.lock().unwrap();
        let (lock, cvar) = &*self.inner;
        let mut q = lock.lock().unwrap();
        q.done += 1;
    }

    fn queue_len(&self) -> usize {
        let (lock, cvar) = &*self.inner;
        let q = lock.lock().unwrap();
        q.len()
    }

    fn drain(&self) {
        if let Ok(q) = self.inner.lock() {
            self.store.commit();
        }
    }
}
