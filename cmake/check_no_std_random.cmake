# Portability guard: no source under src/, bench/ or tools/ may use the
# standard library's random engines or distributions. Their algorithms
# are implementation-defined, so a ref recorded through them would
# depend on the standard library it was built with; all randomness goes
# through emc::sim::Rng (src/sim/random.hpp), whose transforms are
# written out by hand.
#
#   cmake -DEMC_SOURCE_DIR=<repo root> -P cmake/check_no_std_random.cmake
#
# Exits non-zero, listing every offending line, if any file matches.
if(NOT EMC_SOURCE_DIR)
  message(FATAL_ERROR "check_no_std_random: pass -DEMC_SOURCE_DIR=<repo root>")
endif()

set(pattern "<random>|std::mt19937|random_device|std::[A-Za-z0-9_]*_distribution")
set(offenders "")
foreach(dir src bench tools)
  file(GLOB_RECURSE files "${EMC_SOURCE_DIR}/${dir}/*")
  foreach(f ${files})
    file(STRINGS "${f}" hits REGEX "${pattern}")
    foreach(line IN LISTS hits)
      file(RELATIVE_PATH rel "${EMC_SOURCE_DIR}" "${f}")
      string(STRIP "${line}" line)
      string(APPEND offenders "  ${rel}: ${line}\n")
    endforeach()
  endforeach()
endforeach()

if(offenders)
  message(FATAL_ERROR
    "standard-library randomness found (use emc::sim::Rng instead):\n"
    "${offenders}")
endif()
message(STATUS "no standard-library randomness under src/, bench/, tools/")
