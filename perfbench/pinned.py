"""Export digests, pinned from the seed package.

SHA-256 of every export and CLI output the workloads check, as the
package produced them when the benchmark was added (the seed state of
ROADMAP.md).  The JSON schema ``heawood-kit/1`` keeps these bytes stable,
so a changed digest is a failed operation.
"""

DIGESTS = {'json 10,10,10': '6675576aea486aa708142a002ac80347ae4e696f3d89970643d6195f150a26f0',
 'dot 10,10,10': 'd406324f2b3d3c9f9ea9f8de201ffec2f4c70456f12fc8b7f8b8f1c56422ca96',
 'off 3,3,3,3': '12dee021e1e55ca7a60aaf9834e48989ac0076410cb38e0d854a3354135480f4',
 'build -k 1,1,1': 'eec7375828011be09a1ccbcf14d5fd776a4481830f86e279050e9104b165467c',
 'build -k 3,3,3 --torus': '72984b03997267d5d0ccfce00600392428928cc0948759f0a3238e0a5d787398',
 'build -k 10,10,10 --format json-graph': '6675576aea486aa708142a002ac80347ae4e696f3d89970643d6195f150a26f0',
 'build -k 2,1,2 --torus --format off': '8fd83189d24f28661236a9e9a697c4bbebcc58b4adfa01825651a4cb3d1adc0d',
 'fvector -k 2,1,2 --both': 'da31472aee9d05033d025fea7a5770d9736b70088e17311b632010fe5d1cb0f4',
 'aut -k 1,1,1 --compare': '38a1cb0789d13a923e9539c3b453eb0139ceaa7d47831d1f7b5d43b953566a9f',
 'analyze -k 1,1,2 --bipartite --six-cycles --chromatic': '73ef1f4b46d3650a679853cf84560b7b3078e99b6b96c12053d666a79ebe4539',
 'analyze -k 1,3,2 --hamiltonian 3': 'df7644311913ef9d935cd15554346b788e4478a9a7e437e8f95874f55c02dc28',
 'census --matrix 2,-1,0;0,2,-1;-1,0,2': '114da575a68196c63b46d65b59da5abf32aad4958654aba7afb2dc25a2680089',
 'render -k 2,1,2 --domain parallelepiped': '49d7e65748b7bb085da2557dc381551e6aeaaa795b8ec8981befdefb91cf29d7',
 'fixture klein-quartic --aut': '89782eddd8eddea0c6456a131e0180f5e21e1887463150f2d790b2d92adb5968'}
