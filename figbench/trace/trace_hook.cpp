// Entry/exit hook for a -finstrument-functions build of emc_repro.
//
// Every instrumented function entry and exit lands here. The hook keeps,
// per thread, a stack of the layers of the active frames and charges the
// host time between two layer changes to the layer on top of the stack,
// so a layer's self time is its span time minus the child spans of other
// layers. Time with an empty stack (before the first instrumented call,
// after the last one returns) is charged to "idle".
//
// The address -> (layer, tag) map is produced from the binary's symbol
// table by figbench/run.py and named by FIGBENCH_TRACE_MAP. Its lines:
//   L <id> <layer-name>
//   T <id> <tag-name> <timed 0|1>
//   F <hex-offset> <hex-size> <layer-id> <tag-id>
// Offsets are relative to the executable's load address. Tags mark the
// functions whose calls are counted (outermost call only, so a tagged
// function that calls an overload of itself counts once); a timed tag
// also accumulates the inclusive time of its outermost calls. Two tags
// carry extra meaning:
//   refresh   a refresh that made no delay_eval call is a hit;
//   sweep     time inside it spent outside analysis/exp/repro/idle is
//             scenario-body time (exp.worker_busy_frac).
// With FIGBENCH_TRACE_MAP unset the hook does nothing. At exit it writes
// one JSON object to FIGBENCH_TRACE_OUT.
#include <link.h>
#include <time.h>
#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <vector>

#define FIGBENCH_NOTRACE __attribute__((no_instrument_function))

extern "C" {
void __cyg_profile_func_enter(void* fn, void* site) FIGBENCH_NOTRACE;
void __cyg_profile_func_exit(void* fn, void* site) FIGBENCH_NOTRACE;
}

namespace {

constexpr int kMaxLayers = 32;
constexpr int kMaxTags = 32;
constexpr int kMaxDepth = 1 << 14;
constexpr std::size_t kCacheSize = 1 << 14;  // per-thread, power of two
constexpr std::uint8_t kNoTag = 0xff;

struct FnRange {
  std::uintptr_t start;
  std::uintptr_t size;
  std::uint8_t layer;
  std::uint8_t tag;
};

struct Map {
  std::vector<FnRange> fns;  // sorted by start
  std::vector<std::string> layer_names;
  std::vector<std::string> tag_names;
  std::vector<bool> tag_timed;
  std::uintptr_t load_bias = 0;
  int idle = -1;  // layer id of "idle"
  int unmapped = -1;
  bool machinery[kMaxLayers] = {};
  int tag_refresh = -1;
  int tag_delay_eval = -1;
  int tag_sweep = -1;
};

Map* g_map = nullptr;
std::atomic<int> g_state{0};  // 0 = not initialised, 1 = active, 2 = off
std::mutex g_mutex;

FIGBENCH_NOTRACE inline std::uint64_t mono_ns() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

// Ticks of the hot-path clock. On x86-64 that is the (invariant) TSC,
// about twice as cheap as clock_gettime; dump() converts ticks to
// seconds with the rate measured between init() and dump().
FIGBENCH_NOTRACE inline std::uint64_t now_ticks() {
#if defined(__x86_64__)
  return __rdtsc();
#else
  return mono_ns();
#endif
}

std::uint64_t g_ticks0 = 0;
std::uint64_t g_ns0 = 0;

struct Frame {
  std::uint8_t layer;
  std::uint8_t tag;
};

struct ThreadState {
  Frame stack[kMaxDepth];
  int depth = 0;
  int overflow = 0;  // frames beyond kMaxDepth (charged to the top layer)
  std::uint64_t last = 0;
  std::uint64_t first = 0;
  std::uint64_t self_ticks[kMaxLayers] = {};
  std::uint64_t tag_count[kMaxTags] = {};
  std::uint64_t tag_ticks[kMaxTags] = {};
  std::uint64_t tag_start[kMaxTags] = {};
  int tag_active[kMaxTags] = {};
  std::uint64_t refresh_hits = 0;
  bool refresh_evaluated = false;
  std::uint64_t sweep_body_ticks = 0;
  std::uintptr_t cache_key[kCacheSize] = {};
  Frame cache_val[kCacheSize] = {};
};

std::vector<ThreadState*>* g_threads = nullptr;
thread_local ThreadState* t_state = nullptr;

FIGBENCH_NOTRACE void dump();

FIGBENCH_NOTRACE int find_bias(dl_phdr_info* info, std::size_t, void* out) {
  // The first object reported is the main executable.
  *static_cast<std::uintptr_t*>(out) = info->dlpi_addr;
  return 1;
}

FIGBENCH_NOTRACE int layer_named(const Map& m, const char* name) {
  for (std::size_t i = 0; i < m.layer_names.size(); ++i) {
    if (m.layer_names[i] == name) return static_cast<int>(i);
  }
  return -1;
}

FIGBENCH_NOTRACE int tag_named(const Map& m, const char* name) {
  for (std::size_t i = 0; i < m.tag_names.size(); ++i) {
    if (m.tag_names[i] == name) return static_cast<int>(i);
  }
  return -1;
}

FIGBENCH_NOTRACE bool load_map(const char* path, Map* m) {
  std::FILE* f = std::fopen(path, "r");
  if (f == nullptr) return false;
  char line[512];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    char name[256];
    unsigned long long a = 0, b = 0;
    int id = 0, x = 0, y = 0;
    if (line[0] == 'L' && std::sscanf(line, "L %d %255s", &id, name) == 2) {
      if (id < 0 || id >= kMaxLayers) return false;
      if (m->layer_names.size() <= static_cast<std::size_t>(id)) {
        m->layer_names.resize(id + 1);
      }
      m->layer_names[id] = name;
    } else if (line[0] == 'T' &&
               std::sscanf(line, "T %d %255s %d", &id, name, &x) == 3) {
      if (id < 0 || id >= kMaxTags) return false;
      if (m->tag_names.size() <= static_cast<std::size_t>(id)) {
        m->tag_names.resize(id + 1);
        m->tag_timed.resize(id + 1);
      }
      m->tag_names[id] = name;
      m->tag_timed[id] = x != 0;
    } else if (line[0] == 'F' &&
               std::sscanf(line, "F %llx %llx %d %d", &a, &b, &x, &y) == 4) {
      m->fns.push_back({static_cast<std::uintptr_t>(a),
                        static_cast<std::uintptr_t>(b),
                        static_cast<std::uint8_t>(x),
                        static_cast<std::uint8_t>(y)});
    }
  }
  std::fclose(f);
  std::sort(m->fns.begin(), m->fns.end(),
            [](const FnRange& l, const FnRange& r) { return l.start < r.start; });
  m->idle = layer_named(*m, "idle");
  m->unmapped = layer_named(*m, "unmapped");
  for (const char* n : {"analysis", "exp", "repro", "idle"}) {
    const int id = layer_named(*m, n);
    if (id >= 0) m->machinery[id] = true;
  }
  m->tag_refresh = tag_named(*m, "refresh");
  m->tag_sweep = tag_named(*m, "sweep");
  m->tag_delay_eval = tag_named(*m, "delay_eval");
  return m->idle >= 0 && m->unmapped >= 0;
}

FIGBENCH_NOTRACE void init() {
  std::lock_guard<std::mutex> lock(g_mutex);
  if (g_state.load() != 0) return;
  const char* path = std::getenv("FIGBENCH_TRACE_MAP");
  auto* m = new Map;
  if (path == nullptr || !load_map(path, m)) {
    if (path != nullptr) {
      std::fprintf(stderr, "figbench trace: cannot load map %s\n", path);
    }
    delete m;
    g_state.store(2);
    return;
  }
  dl_iterate_phdr(find_bias, &m->load_bias);
  g_map = m;
  g_threads = new std::vector<ThreadState*>;
  g_ns0 = mono_ns();
  g_ticks0 = now_ticks();
  std::atexit(dump);
  g_state.store(1);
}

FIGBENCH_NOTRACE ThreadState* state() {
  if (t_state == nullptr) {
    // Never freed: dump() reads it after the thread has ended.
    t_state = new ThreadState;
    t_state->first = t_state->last = now_ticks();
    std::lock_guard<std::mutex> lock(g_mutex);
    g_threads->push_back(t_state);
  }
  return t_state;
}

FIGBENCH_NOTRACE Frame lookup(ThreadState* ts, void* fn) {
  const std::uintptr_t off = reinterpret_cast<std::uintptr_t>(fn) - g_map->load_bias;
  const std::size_t slot = (off >> 4) & (kCacheSize - 1);
  if (ts->cache_key[slot] == off + 1) return ts->cache_val[slot];
  Frame f{static_cast<std::uint8_t>(g_map->unmapped), kNoTag};
  const auto& fns = g_map->fns;
  auto it = std::upper_bound(
      fns.begin(), fns.end(), off,
      [](std::uintptr_t o, const FnRange& r) { return o < r.start; });
  if (it != fns.begin()) {
    --it;
    if (off < it->start + std::max<std::uintptr_t>(it->size, 1)) {
      f = Frame{it->layer, it->tag};
    }
  }
  ts->cache_key[slot] = off + 1;
  ts->cache_val[slot] = f;
  return f;
}

// Charge the time since the last layer change to `layer`.
FIGBENCH_NOTRACE inline void charge(ThreadState* ts, int layer, std::uint64_t t) {
  const std::uint64_t dt = t - ts->last;
  ts->self_ticks[layer] += dt;
  if (g_map->tag_sweep >= 0 && ts->tag_active[g_map->tag_sweep] > 0 &&
      !g_map->machinery[layer]) {
    ts->sweep_body_ticks += dt;
  }
  ts->last = t;
}

FIGBENCH_NOTRACE inline int top_layer(const ThreadState* ts) {
  return ts->depth == 0 ? g_map->idle : ts->stack[ts->depth - 1].layer;
}

void dump() {
  std::lock_guard<std::mutex> lock(g_mutex);
  const char* out_path = std::getenv("FIGBENCH_TRACE_OUT");
  if (out_path == nullptr || g_threads == nullptr) return;
  std::FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) return;
  const Map& m = *g_map;
  const std::uint64_t t = now_ticks();
  const std::uint64_t ns = mono_ns();
  const double sec_per_tick =
      t > g_ticks0 ? (ns - g_ns0) * 1e-9 / static_cast<double>(t - g_ticks0) : 0.0;
  std::uint64_t self[kMaxLayers] = {}, tag_count[kMaxTags] = {}, tag_ticks[kMaxTags] = {};
  std::uint64_t hits = 0, body = 0, span = 0;
  int max_open = 0;
  for (ThreadState* ts : *g_threads) {
    // Close the calling thread's open interval; other threads have ended.
    if (ts == t_state) charge(ts, top_layer(ts), t);
    for (int i = 0; i < kMaxLayers; ++i) self[i] += ts->self_ticks[i];
    for (int i = 0; i < kMaxTags; ++i) {
      tag_count[i] += ts->tag_count[i];
      tag_ticks[i] += ts->tag_ticks[i];
    }
    hits += ts->refresh_hits;
    body += ts->sweep_body_ticks;
    span += ts->last - ts->first;
    max_open = std::max(max_open, ts->depth + ts->overflow);
  }
  std::fprintf(out, "{\"threads\": %zu, \"span_s\": %.9f, "
               "\"open_frames_at_exit\": %d, \"refresh_hits\": %llu, "
               "\"sweep_body_s\": %.9f, \"self_s\": {",
               g_threads->size(),
               span * sec_per_tick, max_open, static_cast<unsigned long long>(hits),
               body * sec_per_tick);
  for (std::size_t i = 0; i < m.layer_names.size(); ++i) {
    std::fprintf(out, "%s\"%s\": %.9f", i ? ", " : "", m.layer_names[i].c_str(),
                 self[i] * sec_per_tick);
  }
  std::fprintf(out, "}, \"tags\": {");
  for (std::size_t i = 0; i < m.tag_names.size(); ++i) {
    std::fprintf(out, "%s\"%s\": {\"count\": %llu, \"time_s\": %.9f}", i ? ", " : "",
                 m.tag_names[i].c_str(),
                 static_cast<unsigned long long>(tag_count[i]), tag_ticks[i] * sec_per_tick);
  }
  std::fprintf(out, "}}\n");
  std::fclose(out);
}

}  // namespace

extern "C" void __cyg_profile_func_enter(void* fn, void*) {
  int s = g_state.load(std::memory_order_acquire);
  if (s == 0) {
    init();
    s = g_state.load();
  }
  if (s != 1) return;
  ThreadState* ts = state();
  if (ts->depth >= kMaxDepth) {
    ++ts->overflow;
    return;
  }
  const Frame f = lookup(ts, fn);
  const int cur = top_layer(ts);
  const bool timed_tag = f.tag != kNoTag && g_map->tag_timed[f.tag] &&
                         ts->tag_active[f.tag] == 0;
  if (f.layer != cur || timed_tag) {
    const std::uint64_t t = now_ticks();
    charge(ts, cur, t);
    if (timed_tag) ts->tag_start[f.tag] = t;
  }
  if (f.tag != kNoTag) {
    if (ts->tag_active[f.tag]++ == 0) {
      ++ts->tag_count[f.tag];
      if (f.tag == g_map->tag_refresh) ts->refresh_evaluated = false;
    }
    if (f.tag == g_map->tag_delay_eval) ts->refresh_evaluated = true;
  }
  ts->stack[ts->depth++] = f;
}

extern "C" void __cyg_profile_func_exit(void*, void*) {
  if (g_state.load(std::memory_order_acquire) != 1) return;
  ThreadState* ts = state();
  if (ts->overflow > 0) {
    --ts->overflow;
    return;
  }
  if (ts->depth == 0) return;  // exit of a frame entered before tracing began
  const Frame f = ts->stack[--ts->depth];
  const int next = top_layer(ts);
  bool closes_timed = false;
  if (f.tag != kNoTag && --ts->tag_active[f.tag] == 0) {
    closes_timed = g_map->tag_timed[f.tag];
    if (f.tag == g_map->tag_refresh && !ts->refresh_evaluated) {
      ++ts->refresh_hits;
    }
  }
  if (f.layer != next || closes_timed) {
    const std::uint64_t t = now_ticks();
    // The sweep tag is still active while its own exit is charged.
    if (closes_timed) ++ts->tag_active[f.tag];
    charge(ts, f.layer, t);
    if (closes_timed) {
      --ts->tag_active[f.tag];
      ts->tag_ticks[f.tag] += t - ts->tag_start[f.tag];
    }
  }
}
