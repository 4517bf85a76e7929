// Fixture: guards live across durable writes — every site must be
// flagged.

impl Store {
    fn persist_holding_lock(&self) {
        let mut s = self.inner.lock().expect("poisoned");
        s.file.sync_all().unwrap();
    }

    fn rwlock_across_fsync(&self) {
        let map = self.map.write();
        self.journal.sync_data().unwrap();
        drop(map);
    }

    fn finish_append_holding_queue(&self) {
        let q = self.queue.lock().expect("poisoned");
        self.journal.append_finish(&q.id, &result).unwrap();
    }

    fn if_let_scrutinee_across_fsync(&self) {
        if let Some(w) = self.journal.lock().unwrap().as_mut() {
            w.file.sync_all().unwrap();
        }
    }

    fn match_scrutinee_across_fsync(&self) {
        match self.inner.lock() {
            Ok(s) => s.file.sync_data().unwrap(),
            Err(_) => {}
        }
    }

    fn let_else_guard_across_fsync(&self) {
        let Ok(mut s) = self.lock() else { return };
        s.file.sync_all().unwrap();
    }
}
