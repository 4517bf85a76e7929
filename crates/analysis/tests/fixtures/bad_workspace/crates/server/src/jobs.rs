// Job queue: takes the queue lock first and the journal inside it —
// the inverse of the documented hierarchy — while `finish` uses the
// sanctioned order, closing a queue ↔ journal cycle. `compact` fsyncs
// under the queue guard its `if let` scrutinee holds.

impl JobQueue {
    pub fn submit(&self) {
        let (lock, cvar) = &*self.inner;
        let mut q = lock.lock().unwrap();
        let mut j = self.journal.lock().unwrap();
        j.record(&q.head);
    }

    pub fn finish(&self) {
        let mut j = self.journal.lock().unwrap();
        let (lock, cvar) = &*self.inner;
        let mut q = lock.lock().unwrap();
        q.done += 1;
    }

    pub fn compact(&self) {
        let (lock, cvar) = &*self.inner;
        if let Ok(q) = lock.lock() {
            q.file.sync_all().unwrap();
        }
    }
}
