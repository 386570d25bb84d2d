fn ordered(shared: &Shared, key: Vec<u8>, frame: Frame) {
    let snapshot = shared.serving.lock();
    let mut cache = shared.cache.lock();
    cache.insert(key, frame);
    drop((snapshot, cache));
}

fn sequential(shared: &Shared) {
    shared.cache.lock().clear();
    let snapshot = shared.serving.lock();
    drop(snapshot);
}

fn waits(slot: &Slot) {
    let mut result = slot.result.lock();
    while result.is_none() {
        result = slot.done.wait(result);
    }
}

fn startup(shared: &Shared) {
    let table = shared.slots.lock();
    // lint:allow(lock-order, single-threaded startup path; no worker can contend yet)
    let snapshot = shared.serving.lock();
    drop((table, snapshot));
}
