#include "tensor/matrix.h"

#include <sanitizer/asan_interface.h>  // no-op macros outside ASan builds

#include <cstdlib>
#include <cstring>
#include <new>

namespace apollo {

namespace {

// Bytes one thread may keep cached. A 7b-proxy training step at batch 8
// cycles up to 51 MiB of Matrix storage (classic update; 35 MiB fused), so
// the cap covers steps about twice that size.
constexpr size_t kCacheCapBytes = size_t{128} << 20;
// Distinct element counts one thread may keep cached at once; that step
// caches 11.
constexpr int kCacheClasses = 64;

// Every block starts with this header; the floats follow it. While the
// block is cached the header links it into its size class's free list and
// the floats are poisoned; while a Matrix owns it the header is poisoned.
struct alignas(16) Block {
  Block* next;
};

float* floats_of(Block* b) { return reinterpret_cast<float*>(b + 1); }
Block* block_of(float* p) { return reinterpret_cast<Block*>(p) - 1; }

struct SizeClass {
  size_t count = 0;      // floats per block
  Block* head = nullptr;  // null: the slot is free
};

struct StorageCache {
  SizeClass classes[kCacheClasses];
  size_t bytes = 0;

  StorageCache() = default;
  StorageCache(const StorageCache&) = delete;
  StorageCache& operator=(const StorageCache&) = delete;
  ~StorageCache();

  // The class caching blocks of `count` floats, or null.
  SizeClass* find(size_t count) {
    for (SizeClass& k : classes)
      if (k.head != nullptr && k.count == count) return &k;
    return nullptr;
  }
  // The class for `count`, else a free slot, else null (table full).
  SizeClass* slot_for(size_t count) {
    SizeClass* free_slot = nullptr;
    for (SizeClass& k : classes) {
      if (k.head == nullptr) {
        if (free_slot == nullptr) free_slot = &k;
      } else if (k.count == count) {
        return &k;
      }
    }
    return free_slot;
  }
  void trim() noexcept {
    for (SizeClass& k : classes) {
      while (k.head != nullptr) {
        Block* b = k.head;
        k.head = b->next;
        ASAN_UNPOISON_MEMORY_REGION(floats_of(b), k.count * sizeof(float));
        std::free(b);
      }
    }
    bytes = 0;
  }
};

// Set once this thread's cache is destroyed (thread exit, or process exit
// for the main thread). A Matrix that outlives it — a thread_local created
// before the cache, or a function-local static — frees its storage
// directly. Trivially destructible, so it stays readable until the thread
// is gone.
thread_local bool t_cache_gone = false;
thread_local StorageCache t_cache;

StorageCache::~StorageCache() {
  trim();
  t_cache_gone = true;
}

}  // namespace

float* Matrix::acquire(int64_t n, bool zeroed) {
  const size_t count = static_cast<size_t>(n);
  const size_t bytes = count * sizeof(float);
  Block* b = nullptr;
  SizeClass* k = t_cache_gone ? nullptr : t_cache.find(count);
  if (k != nullptr) {
    b = k->head;
    k->head = b->next;
    t_cache.bytes -= bytes;
    ASAN_UNPOISON_MEMORY_REGION(floats_of(b), bytes);
  } else {
    if (count > (SIZE_MAX - sizeof(Block)) / sizeof(float))
      throw std::bad_alloc();
    // lint:allow(hot-path-alloc) miss: first block of this size on this thread
    b = static_cast<Block*>(std::malloc(sizeof(Block) + bytes));
    if (b == nullptr) throw std::bad_alloc();
  }
  ASAN_POISON_MEMORY_REGION(b, sizeof(Block));
  if (zeroed) std::memset(floats_of(b), 0, bytes);
  return floats_of(b);
}

void Matrix::release(float* p, int64_t n) noexcept {
  if (p == nullptr) return;
  const size_t count = static_cast<size_t>(n);
  const size_t bytes = count * sizeof(float);
  Block* b = block_of(p);
  ASAN_UNPOISON_MEMORY_REGION(b, sizeof(Block));
  if (!t_cache_gone && t_cache.bytes + bytes <= kCacheCapBytes) {
    if (SizeClass* k = t_cache.slot_for(count)) {
      b->next = k->head;
      k->count = count;
      k->head = b;
      t_cache.bytes += bytes;
      ASAN_POISON_MEMORY_REGION(p, bytes);
      return;
    }
  }
  std::free(b);
}

Matrix::Matrix(int64_t rows, int64_t cols) : rows_(rows), cols_(cols) {
  APOLLO_CHECK(rows >= 0 && cols >= 0);
  if (size() > 0) data_ = acquire(size(), /*zeroed=*/true);
}

Matrix::Matrix(const Matrix& o) : rows_(o.rows_), cols_(o.cols_) {
  if (size() > 0) {
    data_ = acquire(size(), /*zeroed=*/false);
    std::memcpy(data_, o.data_, static_cast<size_t>(size()) * sizeof(float));
  }
}

Matrix& Matrix::operator=(const Matrix& o) {
  if (this == &o) return *this;
  if (size() != o.size()) {
    float* fresh = o.empty() ? nullptr : acquire(o.size(), /*zeroed=*/false);
    release(data_, size());
    data_ = fresh;
  }
  rows_ = o.rows_;
  cols_ = o.cols_;
  if (size() > 0)
    std::memcpy(data_, o.data_, static_cast<size_t>(size()) * sizeof(float));
  return *this;
}

Matrix& Matrix::operator=(Matrix&& o) noexcept {
  if (this == &o) return *this;
  release(data_, size());
  rows_ = std::exchange(o.rows_, 0);
  cols_ = std::exchange(o.cols_, 0);
  data_ = std::exchange(o.data_, nullptr);
  return *this;
}

void Matrix::reshape_discard(int64_t rows, int64_t cols) {
  APOLLO_CHECK(rows >= 0 && cols >= 0);
  const int64_t n = rows * cols;
  if (n != size()) {
    float* fresh = n > 0 ? acquire(n, /*zeroed=*/false) : nullptr;
    release(data_, size());
    data_ = fresh;
  }
  rows_ = rows;
  cols_ = cols;
  zero();
}

void Matrix::fill_gaussian(Rng& rng, float mean, float stddev) {
  for (float *p = data_, *end = data_ + size(); p != end; ++p)
    *p = mean + stddev * static_cast<float>(rng.next_gaussian());
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (int64_t r = 0; r < rows_; ++r)
    for (int64_t c = 0; c < cols_; ++c) t.at(c, r) = at(r, c);
  return t;
}

void trim_matrix_storage_cache() {
  if (!t_cache_gone) t_cache.trim();
}

}  // namespace apollo
