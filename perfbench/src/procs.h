// The system under test as child processes: storm_server, and for the fleet
// storm_coordinator over storm_server shards. Each child's stdout and stderr
// go to log files in the run directory; the benchmark waits for the
// "serving on port N" line, reads the child's peak RSS and CPU time from
// /proc, and stops every child it started (SIGINT, then SIGKILL after a
// grace period) and waits for it. Children die with the benchmark
// (PR_SET_PDEATHSIG).

#ifndef PERFBENCH_PROCS_H_
#define PERFBENCH_PROCS_H_

#include <sys/types.h>

#include <memory>
#include <string>
#include <vector>

namespace perfbench {

class Child {
 public:
  Child() = default;
  ~Child() { Stop(); }
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  // Spawns argv with output in `log_prefix`.{out,err}; false on failure.
  bool Spawn(const std::vector<std::string>& argv,
             const std::string& log_prefix);
  // Waits for the serving line; returns the port, or -1 on exit/timeout.
  int WaitServing(double timeout_s);
  // Peak resident set (VmHWM) in MiB; 0 when unavailable.
  double PeakRssMb() const;
  // User plus system CPU seconds the child has used; 0 when unavailable.
  double CpuSeconds() const;
  // SIGINT, wait up to 5 s, then SIGKILL; always reaps the child.
  void Stop();

 private:
  pid_t pid_ = -1;
  std::string out_path_;
};

// One serving stack: a single server, or a coordinator over shards.
struct Stack {
  std::vector<std::unique_ptr<Child>> shards;  // empty for a single server
  std::unique_ptr<Child> front;                // the server clients dial
  int port = -1;
  std::vector<int> shard_ports;

  double PeakRssMb() const;
  double CpuSeconds() const;
  void Stop();
};

struct StackSpec {
  std::string server_bin;
  std::string coordinator_bin;
  std::string log_dir;
  bool tiny = false;
  int shards = 0;  // 0: a single storm_server; n: coordinator over n shards
};

// Starts the stack and waits until the front end serves; nullptr on error
// (with a message on stderr).
std::unique_ptr<Stack> StartStack(const StackSpec& spec,
                                  const std::string& tag);

}  // namespace perfbench

#endif  // PERFBENCH_PROCS_H_
