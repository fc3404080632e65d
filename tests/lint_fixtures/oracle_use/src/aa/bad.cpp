// Fixture: production code calling a test oracle instead of the allocator.
#include "alloc/oracle.hpp"

double per_server(const Threads& members, Resource capacity) {
  return aa::alloc::allocate_greedy(members, capacity, capacity).total_utility;
}
